package main

import (
	"testing"

	"repro/internal/distributed"
	"repro/internal/graph"
)

// TestCountingTransportOneRecvStep pins the decorator's counts on the
// one-Recv probe graph over loopback TCP: a steady-state step runs one
// RunGraph per task, moves the 256×256 float32 variable with exactly one
// RecvTensor of 256·256·4 bytes, registers nothing, and ends with one
// AbortStep per task.
func TestCountingTransportOneRecvStep(t *testing.T) {
	tr := newTracer()
	rec := newRPCRecorder(tr)
	spec, resolver, stop, err := oneRecvCluster(true, rec.Resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	g, init, fetch, err := oneRecvGraph()
	if err != nil {
		t.Fatal(err)
	}
	m, err := distributed.NewMaster(g, spec, rec.Resolver(resolver, "client"), distributed.MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, nil, []*graph.Node{init}); err != nil {
		t.Fatal(err)
	}
	fetches := []graph.Endpoint{fetch}
	if _, err := m.Run(nil, fetches, nil); err != nil { // registers the fetch step
		t.Fatal(err)
	}
	rec.reset()
	if _, err := m.Run(nil, fetches, nil); err != nil {
		t.Fatal(err)
	}

	stats, _ := rec.snapshot()
	for _, c := range []struct {
		method       string
		calls, bytes int64
	}{
		{"RunGraph", 2, 4}, // the worker's fetched float32 sum
		{"RecvTensor", 1, 256 * 256 * 4},
		{"RegisterGraph", 0, 0},
		{"AbortStep", 2, 0},
		{"PushGradients", 0, 0},
	} {
		s := stats[c.method]
		if s.calls != c.calls || s.bytes != c.bytes || s.errors != 0 {
			t.Errorf("%s: %d calls, %d bytes, %d errors; want %d calls, %d bytes, 0 errors",
				c.method, s.calls, s.bytes, s.errors, c.calls, c.bytes)
		}
	}

	out := map[string]float64{}
	rpcMetrics(stats, 1, out)
	if got := out["rpc.RecvTensor.kb_per_step"]; got != 262.144 {
		t.Errorf("rpc.RecvTensor.kb_per_step = %v, want 262.144", got)
	}

	// The worker's RecvTensor nests under the worker's RunGraph of the
	// same step.
	spans := tr.snapshot()
	linkParents(spans)
	for _, s := range spans {
		if s.Name != "RecvTensor" {
			continue
		}
		if s.Parent < 0 || spans[s.Parent].Name != "RunGraph" || spans[s.Parent].ID != s.ID {
			t.Errorf("RecvTensor span %+v is not linked to its step's RunGraph", s)
		}
	}
}
