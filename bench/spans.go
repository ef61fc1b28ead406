package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the traced pass. Spans of one pass share
// Pass; Parent is the ID of the span that caused this one (0 for the pass
// itself). pass, window, serve and handoff spans carry the times the
// traced pass measured. A layer span is a replay of that layer alone:
// its duration is measured, its start is laid out inside its parent in
// call order, so a parent's self time is its duration minus its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Pass    int    `json:"pass"`
	Name    string `json:"name"`
	Window  int    `json:"window"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog collects spans in memory; they are written when the run ends.
type spanLog struct {
	epoch time.Time
	pass  int
	spans []span
}

// add records a measured span and returns its ID.
func (l *spanLog) add(parent int, name string, window int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, parent, l.pass, name, window,
		start.Sub(l.epoch).Nanoseconds(), end.Sub(l.epoch).Nanoseconds()})
	return id
}

// addReplay records a replayed layer of duration d under parent, placed
// after the parent's earlier children.
func (l *spanLog) addReplay(parent int, name string, window int, d time.Duration) {
	start := l.spans[parent-1].StartNS
	for _, s := range l.spans {
		if s.Parent == parent && s.EndNS > start {
			start = s.EndNS
		}
	}
	l.spans = append(l.spans, span{len(l.spans) + 1, parent, l.pass, name, window, start, start + d.Nanoseconds()})
}

// writeSpans writes the traced run's spans and per-layer counts.
func writeSpans(path string, r *result) error {
	layers := make(map[string]float64, len(r.PerLayer))
	for _, m := range r.PerLayer {
		layers[m.Name] = m.Value
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Layers   map[string]float64 `json:"layers"`
		Spans    []span             `json:"spans"`
	}{r.Workload, r.Seed, layers, r.Spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
