// Prediction server: train an LFO admission model, serve it over TCP, and
// consult it from a frontend through a one-address FleetRouter — the shape
// of a production deployment where CDN frontends consult a shared
// prediction service (Fig 7 of the paper asks whether this path is fast
// enough; see the wire_fleet workload of bench/). The frontend sends raw
// 40-byte request tuples; the server tracks each object's request history
// and builds the features itself.
//
//	go run ./examples/predictionserver
package main

import (
	"fmt"
	"log"

	"lfo"
)

func main() {
	const cacheSize = 16 << 20

	// Train an admission model on one window of CDN traffic.
	train, err := lfo.GenerateCDNMix(30000, 3)
	if err != nil {
		log.Fatal(err)
	}
	train = train.WithCosts(lfo.ObjectiveBHR)
	model, err := lfo.TrainWindowModel(train, lfo.CacheConfig{
		CacheSize:  cacheSize,
		WindowSize: train.Len(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained model: %d trees, %d leaves\n", model.NumTrees(), model.NumLeaves())

	// Serve it.
	srv := lfo.NewPredictionServer(model, 2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("prediction server on %s\n", addr)

	// A frontend: a router with the one server as its only shard. It
	// batches rows and keeps several batches in flight; a row the server
	// could not answer in time would be answered by a local second-hit
	// heuristic instead, and counted.
	reg := lfo.NewMetricsRegistry()
	router, err := lfo.NewFleetRouter(lfo.FleetConfig{Addrs: []string{addr.String()}, Obs: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	live, err := lfo.GenerateCDNMix(2000, 99)
	if err != nil {
		log.Fatal(err)
	}
	live = live.WithCosts(lfo.ObjectiveBHR)
	freeBytes := int64(cacheSize) // a real frontend reports its cache's free bytes

	// Ask whether OPT would admit each object: every probability is in
	// place once Flush returns.
	probs := make([]float64, live.Len())
	for i, r := range live.Requests {
		router.Enqueue(lfo.AdmitRequest{
			Time: r.Time, ID: uint64(r.ID), Size: r.Size, Cost: r.Cost, Free: freeBytes,
		}, &probs[i])
	}
	router.Flush()
	admitted := 0
	for _, p := range probs {
		if p >= 0.5 {
			admitted++
		}
	}
	fmt.Printf("router: %d of %d rows answered by the server, %d by the fallback; model admits %.1f%% of requests\n",
		reg.Counter("fleet_shard0_rows_total").Value(), len(probs),
		reg.Counter("fleet_shard0_fallback_rows_total").Value(),
		100*float64(admitted)/float64(len(probs)))
}
