package gbdt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// fuzzSeedModel trains a tiny deterministic model for the seed corpus.
func fuzzSeedModel() *Model {
	rng := rand.New(rand.NewSource(11))
	ds := NewDataset(4)
	row := make([]float64, 4)
	for i := 0; i < 400; i++ {
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		label := 0.0
		if row[0]+row[2] > 10 {
			label = 1
		}
		ds.Append(row, label)
	}
	p := DefaultParams()
	p.NumIterations = 3
	m, err := Train(ds, p)
	if err != nil {
		panic(err)
	}
	return m
}

// FuzzModelLoad feeds arbitrary bytes through the gob model parser.
// Whatever Load accepts must be safe to evaluate (no panic, no endless
// walk) and must survive a serialize/parse round trip bit-exactly.
func FuzzModelLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzSeedModel().Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Corrupted variants of the valid stream: truncations and byte flips
	// at a few offsets.
	f.Add(valid[:len(valid)/2])
	for _, off := range []int{8, len(valid) / 3, len(valid) - 9} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x41
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	// Structurally valid gob streams carrying non-finite numerics: these
	// decode cleanly and must be rejected by compilation.
	hostile := hostileSeeds(f)
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(hostile[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.Dim <= 0 {
			t.Fatalf("Load accepted dim %d", m.Dim)
		}
		// Hostile streams can claim absurd dims with no trees to back
		// them; evaluating those would just be the harness allocating a
		// giant row, not a model defect.
		if m.Dim > 1<<12 {
			return
		}
		row := make([]float64, m.Dim)
		for i := range row {
			row[i] = float64(i%7) - 3
		}
		p := m.Predict(row) // must terminate, whatever the tree shape

		// Round trip: anything Load accepts, Save must reproduce.
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("Save of a loaded model failed: %v", err)
		}
		m2, err := Load(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if m2.Dim != m.Dim || len(m2.Trees) != len(m.Trees) {
			t.Fatalf("round trip changed shape: dim %d→%d, trees %d→%d", m.Dim, m2.Dim, len(m.Trees), len(m2.Trees))
		}
		p2 := m2.Predict(row)
		if p != p2 && !(math.IsNaN(p) && math.IsNaN(p2)) {
			t.Fatalf("round trip changed prediction: %v → %v", p, p2)
		}
	})
}

// FuzzScoreMatchesOracle grows a small random model from the fuzzed seed and
// shape, compiles it, and demands that the bitvector scorer return the
// pointer walk's bits for random rows over the same threshold grid, with
// and without a NaN suffix, row by row and through PredictMatrix — and that
// PredictStable report the pointer walk's stability horizon for features
// the fuzzed seed picks on each of those rows. When every tree fits 32
// leaves, two such features also grow by seed-chosen steps (none, onto a
// threshold, one ulp past one, +Inf), and the score Advance carries must
// equal a fresh one's score, limits and state bit for bit (mustAdvance).
func FuzzScoreMatchesOracle(f *testing.F) {
	for _, seed := range scoreSeeds {
		f.Add(seed.seed, seed.dim, seed.trees, seed.maxLeaves, seed.keep)
	}
	f.Fuzz(func(t *testing.T, seed uint64, dim, trees uint8, leaves uint16, keep uint8) {
		rng := splitMix{s: seed}
		d := 1 + int(dim)%64
		m := randomModel(&rng, d, int(trees)%80, 1+int(leaves)%maxLeaves)
		if err := m.Compile(); err != nil {
			t.Fatalf("a grown model did not compile: %v", err)
		}
		rows := gridRows(&rng, 16, d)
		carried := m.CarryWords(1) > 0
		mustMatchOracle(t, m, rows)
		mustMatchHorizon(t, m, rows, &rng)
		if carried {
			mustAdvance(t, m, rows, &rng)
		}
		nanSuffix(rows, d, int(keep)%(d+1))
		mustMatchOracle(t, m, rows)
		mustMatchHorizon(t, m, rows, &rng)
		if carried {
			mustAdvance(t, m, rows, &rng)
		}
	})
}

// scoreSeeds is FuzzScoreMatchesOracle's seed corpus, in code and (through
// TestRegenerateFuzzCorpus) under testdata/fuzz: window-sized trees,
// stumps, no trees, full-word trees, more trees than one block holds.
var scoreSeeds = []struct {
	seed       uint64
	dim, trees uint8
	maxLeaves  uint16
	keep       uint8
}{
	{1, 53, 30, 31, 3},
	{2, 3, 79, 2, 0},
	{3, 7, 0, 1, 7},
	{4, 16, 9, 63, 5},
	{5, 1, 40, 63, 1},
	{6, 63, 70, 40, 20},
}

// FuzzSplitScanMatchesReference builds one feature's histogram in a random
// leaf and demands that bestSplitForFeature, started from a bound, return
// referenceSplit's split whenever that split's gain exceeds the bound, and
// no split otherwise. The bounds tried are minGainToSplit, a random one
// above it and, around the reference's gain g, g itself and the floats one
// and two units in the last place below and one above — where the
// pre-test's margin is all that stands between a winner and a skip.
func FuzzSplitScanMatchesReference(f *testing.F) {
	for _, s := range splitSeeds {
		f.Add(s.seed, s.bins, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed uint64, bins, shape uint8) {
		rng := splitMix{s: seed}
		c, cells := randomSplitCase(&rng, 2+int(bins)%255, shape)
		want := referenceSplit(c, 7, cells)
		const minGain = minGainToSplit
		bounds := []float64{minGain, minGain + rng.float()*math.Abs(want.gain)}
		if want.valid {
			g, down := want.gain, math.Inf(-1)
			bounds = append(bounds, g, math.Nextafter(g, down), math.Nextafter(math.Nextafter(g, down), down),
				math.Nextafter(g, math.Inf(1)))
		}
		for _, bound := range bounds {
			if bound < minGain {
				continue // the scan's contract: a bound of at least minGainToSplit
			}
			exp := splitInfo{}
			if want.valid && want.gain > bound {
				exp = want
			}
			if got := bestSplitForFeature(c, 7, cells, bound); got != exp {
				t.Fatalf("bound %v: got %+v, want %+v", bound, got, exp)
			}
		}
	})
}

// splitSeeds is FuzzSplitScanMatchesReference's seed corpus, in code and
// (through TestRegenerateFuzzCorpus) under testdata/fuzz: plain cases from
// a leaf with too few present rows to split to the widest histogram, one
// seed per shape bit of randomSplitCase, a few combined, and the mutant
// killers.
var splitSeeds = []struct {
	seed        uint64
	bins, shape uint8
}{
	{1, 30, 0},
	{9, 3, 0},
	{3, 60, 0},
	{4, 8, 0},
	{5, 254, 0},
	{6, 12, splitEmptyFirst},
	{7, 40, splitResidue},
	{8, 40, splitTies},
	{9, 40, splitTiny},
	{10, 40, splitAllEmpty},
	{11, 254, splitResidue},
	{12, 8, splitEmptyFirst | splitTies},
	{13, 100, splitTiny | splitTies},
	// Found by a search against mutants: with preTestMargin 0 the pre-test
	// rejects a winner one unit in the last place above the bound (the
	// first three; the second and third send missing left), and without
	// preTestLimit's gate a subnormal one (the last two).
	{4, 40, 0},
	{4, 10, 0},
	{3, 30, splitTies},
	{13, 30, splitTiny},
	{15, 100, splitTiny},
}

// randomSplitCase's shape bits.
const (
	splitEmptyFirst = 1 << 0 // bin 1 holds nothing: {missing | present} is its only split
	splitResidue    = 1 << 1 // some rowless cells keep a float residue, as subtraction leaves
	splitTies       = 1 << 2 // every data cell equal and a value-free missing cell: gains tie
	splitTiny       = 1 << 3 // gradients scaled by 2^-530, so the squares go subnormal
	splitAllEmpty   = 1 << 4 // no data cell holds anything
)

// randomSplitCase draws a leaf and one feature's nb histogram cells
// (missing bin first). Cell sums are multiples of 1/64 — a row's gradient
// is in [-1, 1], its hessian in [0, 1/4] — so equal sums are common and
// exact; the leaf's totals are the cells' sums. A cell holds up to 24
// rows, so that a side reaches minDataInLeaf within a few bins.
func randomSplitCase(rng *splitMix, nb int, shape uint8) (*leafCand, []histBin) {
	scale := 1.0
	if shape&splitTiny != 0 {
		scale = 0x1p-530
	}
	draw := func() histBin {
		n := int32(rng.next() % 25)
		if rng.next()%4 == 0 {
			n = 0
		}
		var g, h float64
		for i := int32(0); i < n; i++ {
			g += float64(int(rng.next()%129)-64) / 64
			h += float64(rng.next()%17) / 64
		}
		return histBin{grad: g * scale, hess: h, count: n}
	}
	cells := make([]histBin, nb)
	proto := draw()
	for b := range cells {
		switch {
		case b > 0 && shape&splitAllEmpty != 0:
		case b > 0 && shape&splitTies != 0:
			cells[b] = proto
		default:
			cells[b] = draw()
		}
		if shape&splitResidue != 0 && cells[b].count == 0 && rng.next()%2 == 0 {
			cells[b].grad = float64(int(rng.next()%5)-2) * 0x1p-56 * scale
			cells[b].hess = float64(int(rng.next()%5)-2) * 0x1p-58
		}
	}
	if shape&splitTies != 0 {
		cells[missingBin].grad, cells[missingBin].hess = 0, 0
	}
	if shape&splitEmptyFirst != 0 && nb > 1 {
		cells[1] = histBin{}
	}
	c := &leafCand{}
	var total int32
	for _, cell := range cells {
		total += cell.count
		c.sumGrad += cell.grad
		c.sumHess += cell.hess
	}
	c.rows = make([]int32, total)
	return c, cells
}

// hostileSeeds serializes models that gob decodes without error but that
// compilation must reject: non-finite thresholds, leaf values, and base
// scores, and a tree wider than one bitvector word. The scorer's sorted
// threshold scan is only exact against ±Inf values because these can never
// reach it (see compileFlat).
func hostileSeeds(tb testing.TB) map[string][]byte {
	leaf := func(v float64) []node { return []node{{Feature: -1, Value: v}} }
	split := func(th float64) []node {
		return []node{{Feature: 0, Threshold: th, Left: 1, Right: 2}, {Feature: -1}, {Feature: -1}}
	}
	models := map[string]*Model{
		"seed-nan-threshold": {Dim: 4, Trees: []Tree{{Nodes: split(math.NaN())}}},
		"seed-inf-threshold": {Dim: 4, Trees: []Tree{{Nodes: split(math.Inf(1))}}},
		"seed-nan-leaf":      {Dim: 4, Trees: []Tree{{Nodes: leaf(math.NaN())}}},
		"seed-neginf-leaf":   {Dim: 4, Trees: []Tree{{Nodes: leaf(math.Inf(-1))}}},
		"seed-nan-base":      {Dim: 4, BaseScore: math.NaN(), Trees: []Tree{{Nodes: leaf(0.5)}}},
		"seed-wide-tree":     {Dim: 4, Trees: []Tree{{Nodes: leaf(0.5)}, chainTree(maxLeaves+1, false)}},
	}
	out := make(map[string][]byte, len(models))
	for name, m := range models {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz when LFO_REGEN_CORPUS=1 is set; otherwise it is a no-op.
// The committed files mirror the in-code f.Add seeds so `go test` (and
// the check.sh fuzz smoke) always replays them from a fresh checkout.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("LFO_REGEN_CORPUS") == "" {
		t.Skip("set LFO_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	var buf bytes.Buffer
	if err := fuzzSeedModel().Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x41
	seeds := map[string][]byte{
		"seed-valid-model":  valid,
		"seed-truncated":    valid[:len(valid)/2],
		"seed-bitflip":      flipped,
		"seed-not-gob":      []byte("not a gob stream"),
		"seed-empty-stream": {},
	}
	for name, data := range hostileSeeds(t) {
		seeds[name] = data
	}
	entries := make(map[string]string, len(seeds)+len(scoreSeeds)+len(splitSeeds))
	for name, data := range seeds {
		entries[filepath.Join("FuzzModelLoad", name)] = fmt.Sprintf("[]byte(%q)\n", data)
	}
	for i, s := range scoreSeeds {
		entries[filepath.Join("FuzzScoreMatchesOracle", fmt.Sprintf("seed-%d", i+1))] = fmt.Sprintf(
			"uint64(%d)\nbyte(%q)\nbyte(%q)\nuint16(%d)\nbyte(%q)\n", s.seed, s.dim, s.trees, s.maxLeaves, s.keep)
	}
	for i, s := range splitSeeds {
		entries[filepath.Join("FuzzSplitScanMatchesReference", fmt.Sprintf("seed-%d", i+1))] = fmt.Sprintf(
			"uint64(%d)\nbyte(%q)\nbyte(%q)\n", s.seed, s.bins, s.shape)
	}
	for name, body := range entries {
		path := filepath.Join("testdata", "fuzz", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("go test fuzz v1\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadRejectsHostileModels pins the validation Load performs beyond
// gob decoding: structures that would make predict panic or never return
// must be rejected.
func TestLoadRejectsHostileModels(t *testing.T) {
	cases := []struct {
		name string
		m    Model
	}{
		{"empty tree", Model{Dim: 4, Trees: []Tree{{}}}},
		{"feature out of range", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 9, Left: 1, Right: 2}, {Feature: -1}, {Feature: -1},
		}}}}},
		{"child out of range", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 0, Left: 1, Right: 7}, {Feature: -1},
		}}}}},
		{"self cycle", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 0, Left: 0, Right: 0},
		}}}}},
		{"backward cycle", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 0, Left: 1, Right: 2}, {Feature: -1}, {Feature: 1, Left: 0, Right: 1},
		}}}}},
		{"shared child", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 0, Left: 1, Right: 2}, {Feature: 1, Left: 3, Right: 4}, {Feature: 1, Left: 4, Right: 5},
			{Feature: -1}, {Feature: -1}, {Feature: -1},
		}}}}},
		{"one child twice", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 0, Left: 1, Right: 1}, {Feature: -1},
		}}}}},
		{"NaN threshold", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 0, Threshold: math.NaN(), Left: 1, Right: 2}, {Feature: -1}, {Feature: -1},
		}}}}},
		{"+Inf threshold", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: 0, Threshold: math.Inf(1), Left: 1, Right: 2}, {Feature: -1}, {Feature: -1},
		}}}}},
		{"NaN leaf value", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: -1, Value: math.NaN()},
		}}}}},
		{"-Inf leaf value", Model{Dim: 4, Trees: []Tree{{Nodes: []node{
			{Feature: -1, Value: math.Inf(-1)},
		}}}}},
		{"NaN base score", Model{Dim: 4, BaseScore: math.NaN(), Trees: []Tree{{Nodes: []node{
			{Feature: -1, Value: 0.5},
		}}}}},
		{"invalid dim", Model{Dim: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil {
				t.Error("hostile model accepted")
			}
		})
	}
}

// TestLoadAcceptsTrainedModels: validation must not reject anything the
// trainer actually produces.
func TestLoadAcceptsTrainedModels(t *testing.T) {
	m := fuzzSeedModel()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatalf("trained model rejected: %v", err)
	}
	row := []float64{1, 2, 3, 4}
	if got, want := m2.Predict(row), m.Predict(row); got != want {
		t.Errorf("round trip changed prediction: %v != %v", got, want)
	}
}
