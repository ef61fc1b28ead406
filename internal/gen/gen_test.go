package gen

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lfo/internal/trace"
)

func TestZipfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 0.8, 100)
	for i := 0; i < 10000; i++ {
		k := z.Next()
		if k < 1 || k > 100 {
			t.Fatalf("Zipf sample %d outside [1,100]", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With alpha=1 over 1000 ranks, rank 1 should receive close to
	// 1/H(1000) ≈ 13.4% of samples; rank frequencies must be decreasing
	// in aggregate (top 10 >> bottom 10).
	rng := rand.New(rand.NewSource(7))
	const n, samples = 1000, 200000
	z := NewZipf(rng, 1.0, n)
	counts := make([]int, n+1)
	for i := 0; i < samples; i++ {
		counts[z.Next()]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	want := samples / h
	got := float64(counts[1])
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("rank-1 count = %g, want within 10%% of %g", got, want)
	}
	top, bottom := 0, 0
	for k := 1; k <= 10; k++ {
		top += counts[k]
	}
	for k := n - 9; k <= n; k++ {
		bottom += counts[k]
	}
	if top < bottom*20 {
		t.Errorf("top-10 count %d not >> bottom-10 count %d", top, bottom)
	}
}

func TestZipfLowAlpha(t *testing.T) {
	// alpha < 1 must work (math/rand's Zipf cannot do this).
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 0.6, 50)
	seen := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		seen[z.Next()] = true
	}
	if len(seen) < 45 {
		t.Errorf("alpha=0.6 over 50 ranks touched only %d ranks", len(seen))
	}
}

func TestZipfPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		alpha float64
		n     uint64
	}{{0, 10}, {-1, 10}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%g,%d) did not panic", tc.alpha, tc.n)
				}
			}()
			NewZipf(rng, tc.alpha, tc.n)
		}()
	}
}

func TestSizeModels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := []struct {
		name     string
		m        SizeModel
		min, max int64
	}{
		{"lognormal", LogNormalSize{Mu: 9, Sigma: 1.5, Min: 100, Max: 10000}, 100, 10000},
		{"pareto", ParetoSize{Alpha: 1.3, Min: 1000, Max: 100000}, 1000, 100000},
		{"fixed", FixedSize{Size: 77}, 77, 77},
		{"uniform", UniformSize{Min: 5, Max: 10}, 5, 10},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 2000; i++ {
				s := tc.m.Sample(rng)
				if s < tc.min || s > tc.max {
					t.Fatalf("sample %d outside [%d,%d]", s, tc.min, tc.max)
				}
			}
		})
	}
}

func TestParetoHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := ParetoSize{Alpha: 1.1, Min: 1 << 20, Max: 256 << 20}
	var max int64
	for i := 0; i < 20000; i++ {
		if s := m.Sample(rng); s > max {
			max = s
		}
	}
	if max < 64<<20 {
		t.Errorf("Pareto(1.1) max over 20k samples = %d, want tail beyond 64MB", max)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := WebMix(100, 1)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero requests", func(c *Config) { c.Requests = 0 }},
		{"no classes", func(c *Config) { c.Classes = nil }},
		{"17 classes", func(c *Config) { // class 16's IDs would be scan IDs
			for len(c.Classes) < 17 {
				c.Classes = append(c.Classes, c.Classes[0])
			}
		}},
		{"zero objects", func(c *Config) { c.Classes[0].Objects = 0 }},
		{"zero alpha", func(c *Config) { c.Classes[0].ZipfAlpha = 0 }},
		{"nil sizes", func(c *Config) { c.Classes[0].Sizes = nil }},
		{"negative weight", func(c *Config) { c.Classes[0].Weight = -1 }},
		{"drift class out of range", func(c *Config) { c.Drift = []DriftEvent{{Class: 5}} }},
		{"drift At out of range", func(c *Config) { c.Drift = []DriftEvent{{Class: 0, At: 1.5}} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := WebMix(100, 1)
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(CDNMix(20000, 42))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tr.Len() != 20000 {
		t.Fatalf("Len = %d, want 20000", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(CDNMix(5000, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(CDNMix(5000, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Error("same seed produced different traces")
	}
	c, err := Generate(CDNMix(5000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateDriftReshuffle(t *testing.T) {
	cfg := WebMix(10000, 4)
	cfg.Drift = []DriftEvent{{At: 0.5, Class: 0, NewWeight: 1, Reshuffle: true}}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[trace.ObjectID]bool)
	for _, r := range tr.Requests[:5000] {
		first[r.ID] = true
	}
	overlap := 0
	secondIDs := make(map[trace.ObjectID]bool)
	for _, r := range tr.Requests[5000:] {
		secondIDs[r.ID] = true
		if first[r.ID] {
			overlap++
		}
	}
	if overlap != 0 {
		t.Errorf("reshuffle: %d requests in second half hit pre-shift objects, want 0", overlap)
	}
	if len(secondIDs) == 0 {
		t.Error("second half empty")
	}
}

func TestGenerateDriftWeights(t *testing.T) {
	// Two classes; drift silences class 0 halfway.
	cfg := Config{
		Requests: 10000,
		Seed:     2,
		Classes: []ContentClass{
			{Name: "a", Objects: 100, ZipfAlpha: 1, Sizes: FixedSize{1}, Weight: 1},
			{Name: "b", Objects: 100, ZipfAlpha: 1, Sizes: FixedSize{2}, Weight: 1},
		},
		Drift: []DriftEvent{{At: 0.5, Class: 0, NewWeight: 0}},
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Requests[5001:] {
		if r.Size == 1 {
			t.Fatalf("request %d after drift still from silenced class", 5001+i)
		}
	}
}

func TestGenerateInterarrival(t *testing.T) {
	cfg := WebMix(20000, 3)
	cfg.MeanInterarrival = 5
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := tr.Requests[tr.Len()-1].Time - tr.Requests[0].Time
	mean := float64(span) / float64(tr.Len()-1)
	if math.Abs(mean-5) > 0.5 {
		t.Errorf("mean interarrival = %g, want ≈5", mean)
	}
}

func TestGenerateSizeStability(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := Generate(CDNMix(3000, seed))
		if err != nil {
			return false
		}
		sizes := make(map[trace.ObjectID]int64)
		for _, r := range tr.Requests {
			if s, ok := sizes[r.ID]; ok && s != r.Size {
				return false
			}
			sizes[r.ID] = r.Size
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{CDNMix(100, 1), WebMix(100, 1), UnitMix(100, 1, 50, 0.8)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestUnitMixAllUnitSizes(t *testing.T) {
	tr, err := Generate(UnitMix(1000, 1, 64, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Requests {
		if r.Size != 1 {
			t.Fatalf("request %d size = %d, want 1", i, r.Size)
		}
	}
}

// TestWithScansMarksOnlyInjected: IsScan names exactly the objects
// WithScans injected, so a base request of class 8 (ID 8<<56) is not a scan
// and the scan request beside it is.
func TestWithScansMarksOnlyInjected(t *testing.T) {
	base := &trace.Trace{Requests: []trace.Request{{Time: 1, ID: 8 << 56, Size: 10, Cost: 10}}}
	out := WithScans(base, ScanConfig{Every: 1, Burst: 1, ObjectSize: 30})
	scans := 0
	for _, r := range out.Requests {
		if IsScan(r.ID) != (r.Size == 30) {
			t.Errorf("request %+v: IsScan = %v", r, IsScan(r.ID))
		}
		if IsScan(r.ID) {
			scans++
		}
	}
	if out.Len() != 2 || scans != 1 {
		t.Errorf("%d requests, %d scans; want the class-8 request and one scan", out.Len(), scans)
	}
}

func TestWithScansInjectsBursts(t *testing.T) {
	base, err := Generate(WebMix(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	out := WithScans(base, ScanConfig{Every: 100, Burst: 10, ObjectSize: 512})
	wantLen := 1000 + 10*10
	if out.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", out.Len(), wantLen)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("scanned trace invalid: %v", err)
	}
	// Scan objects never repeat.
	seen := map[trace.ObjectID]int{}
	scans := 0
	for _, r := range out.Requests {
		if IsScan(r.ID) {
			scans++
			seen[r.ID]++
			if seen[r.ID] > 1 {
				t.Fatal("scan object repeated")
			}
			if r.Size != 512 {
				t.Fatalf("scan size = %d", r.Size)
			}
		}
	}
	if scans != 100 {
		t.Errorf("scan requests = %d, want 100", scans)
	}
	if IsScan(makeID(maxClasses-1, 0xff, 1<<48-1)) {
		t.Error("the last valid class's largest ID is a scan ID")
	}
	// Degenerate configs return the base unchanged.
	if got := WithScans(base, ScanConfig{}); got != base {
		t.Error("zero config did not return base")
	}
}
