package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/distributed"
	"repro/internal/tensor"
)

// rpcMethods are the Transport methods the per-layer metrics report.
var rpcMethods = []string{"RunGraph", "RecvTensor", "PushGradients", "RegisterGraph"}

// rpcStats accumulates one method's traffic as seen by the decorator.
type rpcStats struct {
	calls, errors int64
	// bytes is the payload computed from tensor sizes (elements × dtype
	// size) plus serialized graph bytes for RegisterGraph; framing and
	// codec overhead are not counted.
	bytes int64
	lat   []float64 // µs
}

// pushRecord is one PushGradients call, for the PS-aggregation metrics.
type pushRecord struct {
	origin, shard string
	round         int64
	start, end    time.Duration
	applied       bool
}

// rpcRecorder counts every call that passes through the transports its
// resolvers hand out, and records spans when tr is non-nil.
type rpcRecorder struct {
	tr    *tracer
	epoch time.Time

	mu     sync.Mutex
	stats  map[string]*rpcStats
	pushes []pushRecord
}

func newRPCRecorder(tr *tracer) *rpcRecorder {
	r := &rpcRecorder{tr: tr, epoch: time.Now()}
	if tr != nil {
		r.epoch = tr.epoch
	}
	r.reset()
	return r
}

// reset drops everything counted so far (used after warm-up).
func (r *rpcRecorder) reset() {
	r.mu.Lock()
	r.stats = map[string]*rpcStats{}
	r.pushes = nil
	r.mu.Unlock()
}

// Resolver wraps inner so that every transport it returns is counted.
// caller names who makes the calls ("client" for masters and trainers, a
// task name for a worker's own peer receives); it links a RecvTensor span
// to the RunGraph it serves.
func (r *rpcRecorder) Resolver(inner distributed.Resolver, caller string) distributed.Resolver {
	return func(task string) (distributed.Transport, error) {
		t, err := inner(task)
		if err != nil {
			return nil, err
		}
		return &countingTransport{inner: t, rec: r, task: task, caller: caller}, nil
	}
}

// snapshot returns a copy of the per-method statistics.
func (r *rpcRecorder) snapshot() (map[string]rpcStats, []pushRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]rpcStats, len(r.stats))
	for m, s := range r.stats {
		c := *s
		c.lat = append([]float64(nil), s.lat...)
		out[m] = c
	}
	return out, append([]pushRecord(nil), r.pushes...)
}

// done records one finished call.
func (r *rpcRecorder) done(method, task, caller, id string, start time.Time, bytes int64, err error) {
	end := time.Now()
	r.mu.Lock()
	s := r.stats[method]
	if s == nil {
		s = &rpcStats{}
		r.stats[method] = s
	}
	s.calls++
	s.bytes += bytes
	s.lat = append(s.lat, us(end.Sub(start)))
	if err != nil {
		s.errors++
	}
	r.mu.Unlock()
	if r.tr == nil {
		return
	}
	sp := span{Name: method, Layer: "rpc." + method, Lane: caller + "→" + task, ID: id,
		Start: r.tr.since(start), End: r.tr.since(end), Bytes: bytes}
	switch method {
	case "RunGraph":
		// A worker's RecvTensor calls for this step nest under it.
		sp.Key = "rungraph/" + id + "/" + task
	case "RecvTensor":
		sp.ParentKey = "rungraph/" + id + "/" + caller
	}
	r.tr.record(sp)
}

// countingTransport is the decorator: it forwards every method to inner
// and records calls, payload bytes, latency and errors.
type countingTransport struct {
	inner        distributed.Transport
	rec          *rpcRecorder
	task, caller string
}

func tensorBytes(ts ...*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		if t != nil {
			n += int64(t.ByteSize())
		}
	}
	return n
}

func stepID(id int64) string { return "step " + strconv.FormatInt(id, 10) }

// recvStepID extracts the step from a rendezvous key ("step N;src;dst;name").
func recvStepID(key string) string {
	if i := strings.IndexByte(key, ';'); i > 0 {
		return key[:i]
	}
	return ""
}

func (c *countingTransport) RegisterGraph(req *distributed.RegisterGraphReq) (*distributed.RegisterGraphResp, error) {
	start := time.Now()
	resp, err := c.inner.RegisterGraph(req)
	c.rec.done("RegisterGraph", c.task, c.caller, "", start, int64(len(req.GraphBytes)), err)
	return resp, err
}

func (c *countingTransport) RunGraph(req *distributed.RunGraphReq) (*distributed.RunGraphResp, error) {
	start := time.Now()
	resp, err := c.inner.RunGraph(req)
	n := tensorBytes(req.Feeds...)
	if resp != nil {
		n += tensorBytes(resp.Fetches...)
	}
	c.rec.done("RunGraph", c.task, c.caller, stepID(req.StepID), start, n, err)
	return resp, err
}

func (c *countingTransport) RecvTensor(req *distributed.RecvTensorReq, abort <-chan struct{}) (*distributed.RecvTensorResp, error) {
	start := time.Now()
	resp, err := c.inner.RecvTensor(req, abort)
	var n int64
	if resp != nil {
		n = tensorBytes(resp.Tensor)
	}
	c.rec.done("RecvTensor", c.task, c.caller, recvStepID(req.Key), start, n, err)
	return resp, err
}

func (c *countingTransport) AbortStep(req *distributed.AbortStepReq) error {
	start := time.Now()
	err := c.inner.AbortStep(req)
	c.rec.done("AbortStep", c.task, c.caller, stepID(req.StepID), start, 0, err)
	return err
}

func (c *countingTransport) PushGradients(req *distributed.PushGradientsReq, abort <-chan struct{}) (*distributed.PushGradientsResp, error) {
	start := time.Now()
	resp, err := c.inner.PushGradients(req, abort)
	var n int64
	for _, g := range req.Grads {
		n += tensorBytes(g.Dense, g.Indices, g.Values)
	}
	id := fmt.Sprintf("push %s round %d", req.Origin, req.Round)
	c.rec.done("PushGradients", c.task, c.caller, id, start, n, err)
	if err == nil {
		c.rec.mu.Lock()
		c.rec.pushes = append(c.rec.pushes, pushRecord{origin: req.Origin, shard: c.task, round: req.Round,
			start: start.Sub(c.rec.epoch), end: time.Since(c.rec.epoch), applied: resp.Applied})
		c.rec.mu.Unlock()
	}
	return resp, err
}

func (c *countingTransport) SaveShard(req *distributed.SaveShardReq) (*distributed.SaveShardResp, error) {
	start := time.Now()
	resp, err := c.inner.SaveShard(req)
	c.rec.done("SaveShard", c.task, c.caller, "", start, 0, err)
	return resp, err
}

func (c *countingTransport) Heartbeat(req *distributed.HeartbeatReq) (*distributed.HeartbeatResp, error) {
	start := time.Now()
	resp, err := c.inner.Heartbeat(req)
	c.rec.done("Heartbeat", c.task, c.caller, "", start, 0, err)
	return resp, err
}

// Close does not close the shared inner transport: the resolver caches it
// and hands it out again.
func (c *countingTransport) Close() error { return nil }

// rpcMetrics turns the recorder's counts over steps global steps into the
// rpc.* per-layer metrics.
func rpcMetrics(stats map[string]rpcStats, steps int64, out map[string]float64) {
	if steps < 1 {
		steps = 1
	}
	var errs int64
	for _, s := range stats {
		errs += s.errors
	}
	for _, m := range rpcMethods {
		s := stats[m]
		d := summarize(s.lat)
		out["rpc."+m+".calls_per_step"] = float64(s.calls) / float64(steps)
		out["rpc."+m+".kb_per_step"] = float64(s.bytes) / 1e3 / float64(steps)
		out["rpc."+m+".us_p50"] = d.P50
		out["rpc."+m+".us_p99"] = d.P99
	}
	out["rpc.errors_per_step"] = float64(errs) / float64(steps)
}
