// Package cliutil holds small helpers shared by the cmd/ binaries.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// LoadTrace is the input switch of every trace-consuming binary: the text
// trace at path, or — when path is empty — n requests of the synthetic mix
// ("cdn" or "web") generated from seed. Exactly one of path and mix must be
// set. Costs are as read or generated; callers apply their objective.
func LoadTrace(path, mix string, n int, seed int64) (*trace.Trace, error) {
	switch {
	case path != "" && mix != "":
		return nil, fmt.Errorf("a trace file and a generated mix are mutually exclusive")
	case path != "":
		return trace.ReadFile(path)
	case mix == "cdn":
		return gen.Generate(gen.CDNMix(n, seed))
	case mix == "web":
		return gen.Generate(gen.WebMix(n, seed))
	case mix != "":
		return nil, fmt.Errorf("unknown mix %q (want cdn or web)", mix)
	default:
		return nil, fmt.Errorf("need -trace FILE or -gen MIX")
	}
}

// ParseBytes parses a human-friendly byte size: a plain integer, or an
// integer/decimal with a k/m/g/t suffix (binary units), case-insensitive,
// with an optional trailing "b" or "ib" (e.g. "64m", "1.5G", "256MiB").
// Integers are exact; a size that is negative, not finite or at least
// 2^63 bytes is an error.
func ParseBytes(s string) (int64, error) {
	in := strings.TrimSpace(strings.ToLower(s))
	if in == "" {
		return 0, fmt.Errorf("cliutil: empty size")
	}
	mult := int64(1)
	for _, sfx := range []struct {
		suffix string
		mult   int64
	}{
		{"tib", 1 << 40}, {"tb", 1 << 40}, {"t", 1 << 40},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"b", 1},
	} {
		if strings.HasSuffix(in, sfx.suffix) {
			mult = sfx.mult
			in = strings.TrimSuffix(in, sfx.suffix)
			break
		}
	}
	in = strings.TrimSpace(in)
	if in == "" {
		return 0, fmt.Errorf("cliutil: size %q has no numeric part", s)
	}
	// A plain integer is exact, where float64 would round it; one too
	// large falls through to the range check below.
	if n, err := strconv.ParseUint(in, 10, 63); err == nil && int64(n) <= math.MaxInt64/mult {
		return int64(n) * mult, nil
	}
	f, err := strconv.ParseFloat(in, 64)
	switch {
	case err != nil || math.IsNaN(f):
		return 0, fmt.Errorf("cliutil: cannot parse size %q", s)
	case f < 0:
		return 0, fmt.Errorf("cliutil: negative size %q", s)
	case f*float64(mult) >= 1<<63: // +Inf too; 2^63 is exact in float64
		return 0, fmt.Errorf("cliutil: size %q is out of range", s)
	}
	return int64(f * float64(mult)), nil
}

// FormatBytes renders a byte count with a binary-unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.1fTiB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
