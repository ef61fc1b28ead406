// Fixture for the mutex-copy rule.
package mutexcopy

import "sync"

// Counter carries a lock; copying it forks the lock state.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Wrapped embeds a lock-bearing struct.
type Wrapped struct {
	Counter
	label string
}

// ByValue takes the lock by value — forbidden.
func ByValue(c Counter) int { // want "ByValue passes sync.Mutex by value"
	return c.n
}

// ByPointer shares the lock — allowed.
func ByPointer(c *Counter) int {
	return c.n
}

// Get copies the lock through its receiver — forbidden.
func (c Counter) Get() int { // want "Get passes sync.Mutex by value"
	return c.n
}

// Embedded locks are found through struct recursion — forbidden.
func UseWrapped(w Wrapped) { // want "UseWrapped passes sync.Mutex by value"
	_ = w.label
}

// Copy duplicates an existing lock — forbidden.
func Copy(c *Counter) {
	d := *c // want "assignment copies sync.Mutex by value"
	_ = d.n
}

// Fresh returns a zero-valued lock from a constructor — allowed.
func Fresh() Counter {
	return Counter{}
}

// Range copies the lock every iteration — forbidden.
func Range(cs []Counter) int {
	total := 0
	for _, c := range cs { // want "range value copies sync.Mutex"
		total += c.n
	}
	return total
}

// RangeIndex iterates by index — allowed.
func RangeIndex(cs []Counter) int {
	total := 0
	for i := range cs {
		total += cs[i].n
	}
	return total
}

// Pass hands a dereferenced lock to a callee — forbidden (both the call
// site and the callee's by-value parameter are flagged).
func Pass(c *Counter) {
	take(*c) // want "argument copies sync.Mutex by value"
}

func take(c Counter) int { // want "take passes sync.Mutex by value"
	return c.n
}

// Arrays of locks copy every element — forbidden.
func Stripes(locks [4]sync.Mutex) {} // want "Stripes passes sync.Mutex by value"

// WaitGroups are locks too — forbidden.
func WaitForAll(wg sync.WaitGroup) { // want "WaitForAll passes sync.WaitGroup by value"
	wg.Wait()
}
