package experiments

import (
	"fmt"
	"strings"
)

// Figure is one row of the registry: a name lfobench's -fig selects, the
// group it also answers to ("" for none), and the run that turns a Config
// into its table.
type Figure struct {
	Name  string
	Group string
	Run   func(Config) (*Table, error)
}

// figure pairs a typed FigX with its FigXTable.
func figure[R any](name, group string, run func(Config) (R, error), table func(R) *Table) Figure {
	return Figure{Name: name, Group: group, Run: func(cfg Config) (*Table, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return table(r), nil
	}}
}

// Figures returns every figure in the order lfobench prints them. seeds is
// Fig 5c's seed count and repeats Fig 5b's subsets per size (see Fig5c and
// Fig5b for what zero means).
func Figures(seeds, repeats int) []Figure {
	return []Figure{
		figure("1", "", Fig1, Fig1Table),
		figure("acc", "", Accuracy, AccuracyTable),
		figure("5a", "", Fig5a, Fig5aTable),
		figure("5b", "", func(c Config) ([]TrainingSizePoint, error) { return Fig5b(c, nil, repeats) }, Fig5bTable),
		figure("5c", "", func(c Config) (*SeedResult, error) { return Fig5c(c, seeds) }, Fig5cTable),
		figure("6", "", Fig6, Fig6Table),
		figure("8", "", Fig8, Fig8Table),
		figure("evict", "", EvictionGrid, EvictionGridTable),
		figure("drift", "", DriftGrid, DriftGridTable),
		figure("tiered", "", TieredExperiment, TieredTable),
		figure("robust", "", Robustness, RobustnessTable),
		figure("ablate-rank", "ablate", func(c Config) ([]RankFractionPoint, error) { return AblationRankFraction(c, nil) }, AblationRankFractionTable),
		figure("ablate-features", "ablate", AblationFeatureVariants, AblationFeatureVariantsTable),
		figure("ablate-policy", "ablate", AblationPolicyDesign, AblationPolicyDesignTable),
		figure("ablate-iters", "ablate", func(c Config) ([]IterationsResult, error) { return AblationIterations(c, nil) }, AblationIterationsTable),
	}
}

// answers reports whether one element of a -fig value selects f: its name,
// its group, or "all".
func (f Figure) answers(name string) bool {
	return name == "all" || name == f.Name || (f.Group != "" && name == f.Group)
}

// Select returns, in registry order, the figures a comma-separated -fig
// value names. An element that selects nothing is an error listing what
// would have.
func Select(figs []Figure, spec string) ([]Figure, error) {
	picked := make([]bool, len(figs))
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		found := false
		for i, f := range figs {
			if f.answers(name) {
				picked[i], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown figure %q (want %s)", name, Names(figs))
		}
	}
	var out []Figure
	for i, f := range figs {
		if picked[i] {
			out = append(out, f)
		}
	}
	return out, nil
}

// Names lists what Select accepts, for usage texts: every figure name in
// registry order, a group where its first member stands, then "all".
func Names(figs []Figure) string {
	var names []string
	seen := map[string]bool{}
	for _, f := range figs {
		if f.Group != "" && !seen[f.Group] {
			seen[f.Group] = true
			names = append(names, f.Group)
		}
		names = append(names, f.Name)
	}
	return strings.Join(append(names, "all"), ", ")
}
