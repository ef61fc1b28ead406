// Prediction server: train an LFO admission model, serve it over TCP, and
// drive it from a client that tracks online features for a live request
// stream — the shape of a production deployment where CDN frontends
// consult a shared prediction service (Fig 7 of the paper asks whether
// this path is fast enough; see the wire_fleet workload of bench/).
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

	// A frontend: stream fresh traffic, build online features, and ask
	// the server whether OPT would admit each object.
	client, err := lfo.DialPrediction(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	live, err := lfo.GenerateCDNMix(2000, 99)
	if err != nil {
		log.Fatal(err)
	}
	live = live.WithCosts(lfo.ObjectiveBHR)

	tracker := lfo.NewFeatureTracker(0)
	freeBytes := int64(cacheSize) // a real frontend reports its cache's free bytes

	const batch = 256
	rows := make([]float64, 0, batch*lfo.FeatureDim)
	admitted, total := 0, 0
	flush := func() {
		if len(rows) == 0 {
			return
		}
		probs, err := client.Predict(rows)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range probs {
			total++
			if p >= 0.5 {
				admitted++
			}
		}
		rows = rows[:0]
	}

	buf := make([]float64, lfo.FeatureDim)
	for _, r := range live.Requests {
		tracker.Features(r, freeBytes, buf)
		rows = append(rows, buf...)
		tracker.Update(r)
		if len(rows) == batch*lfo.FeatureDim {
			flush()
		}
	}
	flush()

	fmt.Printf("served %d predictions over TCP; model admits %.1f%% of requests\n",
		total, 100*float64(admitted)/float64(total))

	// The compact protocol: ship raw request tuples (40 bytes each) and
	// let the server track features — a tenth of the bandwidth.
	compact, err := lfo.DialPrediction(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer compact.Close()
	tuples := make([]lfo.AdmitRequest, 0, 256)
	admitted2 := 0
	for _, r := range live.Requests {
		tuples = append(tuples, lfo.AdmitRequest{
			Time: r.Time, ID: uint64(r.ID), Size: r.Size, Cost: r.Cost, Free: freeBytes,
		})
		if len(tuples) == cap(tuples) {
			probs, err := compact.Admit(tuples)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range probs {
				if p >= 0.5 {
					admitted2++
				}
			}
			tuples = tuples[:0]
		}
	}
	if len(tuples) > 0 {
		probs, err := compact.Admit(tuples)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range probs {
			if p >= 0.5 {
				admitted2++
			}
		}
	}
	fmt.Printf("compact protocol (server-side feature tracking) admits %.1f%% — same decisions, ~10x less wire traffic\n",
		100*float64(admitted2)/float64(live.Len()))
}
