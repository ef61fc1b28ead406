package experiments

import (
	"reflect"
	"testing"
)

func figureNames(figs []Figure) []string {
	var names []string
	for _, f := range figs {
		names = append(names, f.Name)
	}
	return names
}

// TestRegistry: the figures come in the order lfobench has always printed
// them, under unique names, and every name its usage documents — figures,
// the ablation group, "all" — selects what it says, in registry order
// whatever order it was asked in.
func TestRegistry(t *testing.T) {
	figs := Figures(3, 1)
	ablations := []string{"ablate-rank", "ablate-features", "ablate-policy", "ablate-iters"}
	order := append([]string{"1", "acc", "5a", "5b", "5c", "6", "8", "evict", "drift", "tiered", "robust"}, ablations...)
	if got := figureNames(figs); !reflect.DeepEqual(got, order) {
		t.Fatalf("registry order %v, want %v", got, order)
	}
	seen := map[string]bool{"all": true, "ablate": true}
	for _, f := range figs {
		if seen[f.Name] {
			t.Errorf("name %q is taken twice", f.Name)
		}
		seen[f.Name] = true
		if f.Run == nil {
			t.Errorf("%s: no run", f.Name)
		}
		one, err := Select(figs, f.Name)
		if err != nil || len(one) != 1 || one[0].Name != f.Name {
			t.Errorf("Select(%q) = %v, %v", f.Name, figureNames(one), err)
		}
	}
	for spec, want := range map[string][]string{
		"all":             order,
		"ablate":          ablations,
		"8, 5a":           {"5a", "8"},
		"ablate,1,ablate": append([]string{"1"}, ablations...),
	} {
		got, err := Select(figs, spec)
		if err != nil || !reflect.DeepEqual(figureNames(got), want) {
			t.Errorf("Select(%q) = %v, %v; want %v", spec, figureNames(got), err, want)
		}
	}
	for _, spec := range []string{"7", "", "6,bogus"} {
		if got, err := Select(figs, spec); err == nil {
			t.Errorf("Select(%q) = %v, want an error", spec, figureNames(got))
		}
	}
	if got, want := Names(figs), "1, acc, 5a, 5b, 5c, 6, 8, evict, drift, tiered, robust, ablate, ablate-rank, ablate-features, ablate-policy, ablate-iters, all"; got != want {
		t.Errorf("Names = %q, want %q", got, want)
	}
}
