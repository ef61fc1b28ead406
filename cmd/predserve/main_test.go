package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/server"
)

// baseModel is a compiled model of no trees: it predicts sigmoid(base).
func baseModel(t *testing.T, base float64) *gbdt.Model {
	t.Helper()
	m := &gbdt.Model{Dim: features.Dim, BaseScore: base}
	if err := m.Compile(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDebugAddrServesLiveCounts exercises the exact wiring -debug.addr
// produces: the debug listener must serve /metrics, /debug/vars and
// /debug/pprof/ with live counters after two Admit round trips.
func TestDebugAddrServesLiveCounts(t *testing.T) {
	model := baseModel(t, 1)
	srv, dbg, err := buildServer(model, serveConfig{workers: 1, shardID: -1}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if dbg == nil {
		t.Fatal("no debug listener for a non-empty -debug.addr")
	}
	t.Cleanup(func() {
		if err := dbg.stop(); err != nil {
			t.Errorf("debug stop: %v", err)
		}
	})
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	c, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Admit([]server.AdmitRequest{{Time: 1, ID: 3, Size: 64, Cost: 64, Free: 1 << 20}, {Time: 2, ID: 4, Size: 64, Cost: 64, Free: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit([]server.AdmitRequest{{Time: 3, ID: 3, Size: 64, Cost: 64, Free: 1 << 20}}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + dbg.addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"server_admit_requests_total 2",
		"server_admit_rows_total 3",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q; got:\n%s", want, metrics)
		}
	}

	var vars struct {
		LFO map[string]int64 `json:"lfo"`
	}
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.LFO["server_admit_rows_total"] != 3 {
		t.Errorf("/debug/vars server_admit_rows_total = %d, want 3", vars.LFO["server_admit_rows_total"])
	}

	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}

// TestBuildServerWithoutDebugAddr: no -debug.addr means no registry and
// no listener.
func TestBuildServerWithoutDebugAddr(t *testing.T) {
	model := baseModel(t, 0)
	srv, dbg, err := buildServer(model, serveConfig{workers: 1, shardID: -1, maxTracked: 7}, "")
	if err != nil {
		t.Fatal(err)
	}
	if dbg != nil {
		t.Error("debug listener created without -debug.addr")
	}
	if srv.Obs != nil {
		t.Error("registry created without -debug.addr")
	}
	if srv.MaxTrackedObjects != 7 {
		t.Errorf("MaxTrackedObjects = %d, want 7", srv.MaxTrackedObjects)
	}
}

// TestServingFlagsReachServer: every serving-path flag value must land
// on the corresponding server knob, and a degradation event must come
// out as exactly one structured log line.
func TestServingFlagsReachServer(t *testing.T) {
	var lines []string
	cfg := serveConfig{
		workers:      1,
		shardID:      -1,
		readTimeout:  3 * time.Second,
		writeTimeout: 4 * time.Second,
		drainTimeout: 5 * time.Second,
		maxFrame:     1 << 16,
		maxConns:     9,
		degradeLog:   func(line string) { lines = append(lines, line) },
	}
	srv, _, err := buildServer(baseModel(t, 0), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if srv.ReadTimeout != cfg.readTimeout || srv.WriteTimeout != cfg.writeTimeout ||
		srv.DrainTimeout != cfg.drainTimeout || srv.MaxFramePayload != cfg.maxFrame ||
		srv.MaxConns != cfg.maxConns {
		t.Errorf("flags not wired: server = %+v", srv)
	}
	if srv.OnDegrade == nil {
		t.Fatal("OnDegrade not wired")
	}
	srv.OnDegrade(server.DegradeEvent{Kind: "read_timeout", Remote: "1.2.3.4:5", Err: errors.New("boom")})
	srv.OnDegrade(server.DegradeEvent{Kind: "conn_limit"})
	want := []string{
		`predserve: degrade kind=read_timeout remote=1.2.3.4:5 err="boom"`,
		"predserve: degrade kind=conn_limit remote=-",
	}
	if len(lines) != len(want) {
		t.Fatalf("degrade lines = %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("degrade line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestShardIDTagsLogsAndMetrics: -shard-id must show up as a shard= key
// in degrade lines and as a shard<id>_ prefix on every metric the server
// records, so a fleet's shards stay distinguishable in one pipeline.
func TestShardIDTagsLogsAndMetrics(t *testing.T) {
	var lines []string
	cfg := serveConfig{
		workers:    1,
		shardID:    2,
		degradeLog: func(line string) { lines = append(lines, line) },
	}
	model := baseModel(t, 1)
	srv, dbg, err := buildServer(model, cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := dbg.stop(); err != nil {
			t.Errorf("debug stop: %v", err)
		}
	})
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	c, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Admit([]server.AdmitRequest{{Time: 1, ID: 3, Size: 64, Cost: 64, Free: 1 << 20}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + dbg.addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "shard2_server_admit_requests_total 1\n") {
		t.Errorf("/metrics missing shard-prefixed counter; got:\n%s", body)
	}

	srv.OnDegrade(server.DegradeEvent{Kind: "conn_limit"})
	if want := "predserve: degrade shard=2 kind=conn_limit remote=-"; len(lines) != 1 || lines[0] != want {
		t.Errorf("degrade lines = %q, want [%q]", lines, want)
	}
}

// TestObtainModelRejectsWrongWidth: -model with a file whose model does
// not score features.Dim-wide rows is refused at startup, not on the
// first request.
func TestObtainModelRejectsWrongWidth(t *testing.T) {
	narrow := &gbdt.Model{Dim: 2, BaseScore: 1}
	path := filepath.Join(t.TempDir(), "narrow.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := obtainModel(path, "", "", 0, 0, "64m"); err == nil || !strings.Contains(err.Error(), "scores 2 features") {
		t.Fatalf("2-feature model file: model %v, err %v", m, err)
	}
}
