// Fixture for the map-order rule.
package maporder

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// AppendDerived appends computed values in map order — forbidden even
// though a sort follows, because the appended values are not the loop
// variables themselves.
func AppendDerived(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v*2) // want "inside map iteration makes its element order depend on map order"
	}
	sort.Ints(out)
	return out
}

// CollectAndSort is the canonical deterministic idiom — allowed.
func CollectAndSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CollectNoSort collects keys but never sorts them — forbidden.
func CollectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "inside map iteration makes its element order depend on map order"
	}
	return keys
}

// PrintAll writes output in map order — forbidden.
func PrintAll(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "output written inside map iteration"
	}
}

// SumFloats accumulates floats in map order — forbidden (float addition
// is not associative).
func SumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "floating-point accumulation"
	}
	return sum
}

// SumInts accumulates integers — allowed (exact and commutative).
func SumInts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// SumLens assigns a call's result to a loop-local and sums integers —
// allowed: only appends are collection.
func SumLens(m map[string]int) int {
	total := 0
	for k := range m {
		n := len(k)
		total += n
	}
	return total
}

// LocalFloat accumulates into a variable scoped inside the loop body —
// allowed: its bits do not outlive one visit.
func LocalFloat(m map[string][]float64) int {
	big := 0
	for _, vs := range m {
		local := 0.0
		for _, v := range vs {
			local += v
		}
		if local > 1 {
			big++
		}
	}
	return big
}

// WriteKeys writes through a method in map order — forbidden.
func WriteKeys(b *strings.Builder, m map[string]int) {
	for k := range m {
		b.WriteString(k) // want "output written inside map iteration"
	}
}

// LocalAppend appends to a slice scoped inside the loop body — allowed.
func LocalAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// SliceAppend ranges over a slice, not a map — allowed.
func SliceAppend(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}
