// Package sketch provides the probabilistic frequency structures backing
// the TinyLFU admission policy: a conservative-update count-min sketch
// with periodic halving (the "reset" aging mechanism) and a doorkeeper
// Bloom filter that absorbs one-hit wonders before they reach the sketch.
package sketch

// mix64 is SplitMix64's finalizer, used to derive per-row hash values.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CountMin is a conservative-update count-min sketch with 4-bit counters
// packed two per byte — the same compact footprint production TinyLFU
// implementations use. Counters saturate at 15 and are halved by Reset.
type CountMin struct {
	rows     int
	mask     uint64
	counters [][]byte // rows × (width/2) packed nibbles
}

// NewCountMin returns a sketch with the given width (rounded up to a
// power of two, minimum 16) and depth rows (minimum 1).
func NewCountMin(width, rows int) *CountMin {
	if rows < 1 {
		rows = 1
	}
	if width < 16 {
		width = 16
	}
	// Round width up to a power of two for cheap masking.
	w := 1
	for w < width {
		w <<= 1
	}
	c := &CountMin{rows: rows, mask: uint64(w - 1)}
	c.counters = make([][]byte, rows)
	for r := range c.counters {
		c.counters[r] = make([]byte, w/2)
	}
	return c
}

func (c *CountMin) nibble(row int, slot uint64) byte {
	b := c.counters[row][slot/2]
	if slot%2 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

func (c *CountMin) setNibble(row int, slot uint64, v byte) {
	i := slot / 2
	b := c.counters[row][i]
	if slot%2 == 0 {
		c.counters[row][i] = (b &^ 0x0f) | v
	} else {
		c.counters[row][i] = (b &^ 0xf0) | (v << 4)
	}
}

// Add increments the counters for key (conservative update: only the
// minimal counters grow), saturating at 15.
func (c *CountMin) Add(key uint64) {
	min := c.Estimate(key)
	if min >= 15 {
		return
	}
	for r := 0; r < c.rows; r++ {
		slot := mix64(key+uint64(r)*0x9e3779b97f4a7c15) & c.mask
		if v := c.nibble(r, slot); v == min {
			c.setNibble(r, slot, v+1)
		}
	}
}

// Estimate returns the approximate count for key (an overestimate with
// high probability, capped at 15).
func (c *CountMin) Estimate(key uint64) byte {
	min := byte(15)
	for r := 0; r < c.rows; r++ {
		slot := mix64(key+uint64(r)*0x9e3779b97f4a7c15) & c.mask
		if v := c.nibble(r, slot); v < min {
			min = v
		}
	}
	return min
}

// Reset halves all counters, aging the frequency estimates.
func (c *CountMin) Reset() {
	for r := range c.counters {
		row := c.counters[r]
		for i := range row {
			// Halve both nibbles in place.
			row[i] = (row[i] >> 1) & 0x77
		}
	}
}

// Bloom is a simple Bloom filter used as TinyLFU's doorkeeper.
type Bloom struct {
	bitsArr []uint64
	mask    uint64
	hashes  int
}

// NewBloom returns a filter with the given bit count (rounded up to a
// power of two, minimum 64) and hash count (minimum 1).
func NewBloom(bitCount, hashes int) *Bloom {
	if hashes < 1 {
		hashes = 1
	}
	if bitCount < 64 {
		bitCount = 64
	}
	n := 64
	for n < bitCount {
		n <<= 1
	}
	return &Bloom{bitsArr: make([]uint64, n/64), mask: uint64(n - 1), hashes: hashes}
}

// Add inserts key and reports whether it was (probably) already present.
func (b *Bloom) Add(key uint64) bool {
	present := true
	for h := 0; h < b.hashes; h++ {
		bit := mix64(key+uint64(h)*0xa24baed4963ee407) & b.mask
		w, off := bit/64, bit%64
		if b.bitsArr[w]&(1<<off) == 0 {
			present = false
			b.bitsArr[w] |= 1 << off
		}
	}
	return present
}

// Contains reports whether key is (probably) present.
func (b *Bloom) Contains(key uint64) bool {
	for h := 0; h < b.hashes; h++ {
		bit := mix64(key+uint64(h)*0xa24baed4963ee407) & b.mask
		if b.bitsArr[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the filter.
func (b *Bloom) Clear() {
	for i := range b.bitsArr {
		b.bitsArr[i] = 0
	}
}
