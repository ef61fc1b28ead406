// Command tracegen generates synthetic CDN request traces in the
// webcachesim-compatible text format every -trace flag in the repository
// reads.
//
// Usage:
//
//	tracegen -n 500000 -seed 1 -mix cdn -o trace.txt
//	tracegen -n 100000 -mix web -stats > web.txt
//
// The generator substitutes for the proprietary production trace used in
// the paper's evaluation; see DESIGN.md for the substitution rationale.
package main

import (
	"flag"
	"fmt"
	"os"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

func main() {
	var (
		n     = flag.Int("n", 100000, "number of requests")
		seed  = flag.Int64("seed", 1, "generator seed")
		mix   = flag.String("mix", "cdn", "workload mix: cdn, web, or unit")
		out   = flag.String("o", "-", "output path ('-' = stdout)")
		stats = flag.Bool("stats", false, "print trace statistics to stderr")
	)
	flag.Parse()

	var cfg gen.Config
	switch *mix {
	case "cdn":
		cfg = gen.CDNMix(*n, *seed)
	case "web":
		cfg = gen.WebMix(*n, *seed)
	case "unit":
		cfg = gen.UnitMix(*n, *seed, 1<<16, 0.9)
	default:
		fatalf("unknown mix %q (want cdn, web or unit)", *mix)
	}

	tr, err := gen.Generate(cfg)
	if err != nil {
		fatalf("generate: %v", err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create %s: %v", *out, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("close %s: %v", *out, err)
			}
		}()
		w = f
	}
	if err := trace.Write(w, tr); err != nil {
		fatalf("write: %v", err)
	}

	if *stats {
		s := tr.ComputeStats()
		fmt.Fprintf(os.Stderr,
			"requests=%d objects=%d totalBytes=%d uniqueBytes=%d meanSize=%.0f oneHitWonders=%d\n",
			s.Requests, s.UniqueObjects, s.TotalBytes, s.UniqueBytes, s.MeanSize, s.OneHitWonders)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
