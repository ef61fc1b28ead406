// Fixture for goroutine-join's WaitGroup misuse checks.
package wgmisuse

import "sync"

// AddInside increments the counter from inside the goroutine it guards —
// Wait can observe the zero count and return before the work starts.
func AddInside() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want "wg.Add inside the spawned goroutine"
		defer wg.Done()
	}()
	wg.Wait()
}

// PlainDone calls Done as an ordinary statement — a panic in work() would
// skip it and deadlock Wait.
func PlainDone(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		work()
		wg.Done() // want "wg.Done is not deferred"
	}()
	wg.Wait()
}

// Correct is the sanctioned pattern: Add on the spawning side, Done
// deferred first thing in the goroutine.
func Correct(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// SpawningSide shows the accept-loop shape written as a func literal: the
// Add is flagged conservatively (an accept loop that holds its own count
// may Add for children safely — use //lfolint:ignore there, or a named
// method, which is out of this check's FuncLit scope). The nested
// goroutine's plain Done is flagged when the walk reaches its go
// statement.
func SpawningSide(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wg.Add(1) // want "wg.Add inside the spawned goroutine"
		go func() {
			work()
			wg.Done() // want "wg.Done is not deferred"
		}()
	}()
	wg.Wait()
}

// NotAWaitGroup has Add/Done methods but is not sync.WaitGroup.
type NotAWaitGroup struct{ n int }

func (c *NotAWaitGroup) Add(d int) { c.n += d }
func (c *NotAWaitGroup) Done()     { c.n-- }

// Lookalike exercises the type check: same method names, different type,
// so neither misuse is reported — and neither call is a join path.
func Lookalike() {
	var c NotAWaitGroup
	go func() { // want "no visible join path"
		c.Add(1)
		c.Done()
	}()
}
