// Quickstart: generate a synthetic CDN trace, run the LFO learning cache
// on it, and compare its byte hit ratio against plain LRU.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lfo"
)

func main() {
	// A mixed CDN workload: web pages, photos, video segments and
	// software downloads, with a mid-trace flash crowd.
	tr, err := lfo.GenerateCDNMix(60000, 1)
	if err != nil {
		log.Fatal(err)
	}
	tr = tr.WithCosts(lfo.ObjectiveBHR)

	const cacheSize = 32 << 20 // 32 MiB

	// The LFO cache: every 15000 requests it computes OPT's decisions
	// for the window just served, trains a boosted decision tree to
	// imitate them, and uses the model for admission and eviction. Each
	// window handoff reports to the metrics registry.
	reg := lfo.NewMetricsRegistry()
	cache, err := lfo.NewCache(lfo.CacheConfig{
		CacheSize:  cacheSize,
		WindowSize: 15000,
		Obs:        reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	opts := lfo.SimOptions{Warmup: 15000} // skip the bootstrap window
	lfoMetrics := lfo.Simulate(tr, cache, opts)
	fmt.Printf("%d windows trained; the last: %d samples, %.1f%% admitted by OPT, %.1f%% train agreement\n",
		cache.Windows(), reg.Gauge("core_window_requests").Value(),
		float64(reg.Gauge("core_label_positive_ppm").Value())/1e4,
		float64(reg.Gauge("core_train_agreement_ppm").Value())/1e4)

	lru, err := lfo.NewPolicy("lru", cacheSize, 1)
	if err != nil {
		log.Fatal(err)
	}
	lruMetrics := lfo.Simulate(tr, lru, opts)

	fmt.Println()
	fmt.Printf("%-6s  BHR %.4f  OHR %.4f\n", "LFO", lfoMetrics.BHR(), lfoMetrics.OHR())
	fmt.Printf("%-6s  BHR %.4f  OHR %.4f\n", "LRU", lruMetrics.BHR(), lruMetrics.OHR())
	fmt.Printf("\nLFO improves BHR by %.1f%% over LRU\n",
		100*(lfoMetrics.BHR()-lruMetrics.BHR())/lruMetrics.BHR())
}
