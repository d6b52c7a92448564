package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
	"repro/internal/tensor"
	"repro/tf"
	"repro/tf/nn"
)

// serve_http_openloop: the frozen 12×16 narrow-deep MLP exported and
// loaded through serving.Registry with MaxBatch 64 and a 1 ms window.
// Requests are JSON bodies sent through serving.NewServer(reg).Handler()
// .ServeHTTP in process. 90% carry one row, 10% carry eight. Arrivals are
// Poisson at fixed rates, sent by one open-loop generator.
const (
	serveCols, serveDepth, serveOut = 16, 12, 8
	serveName                       = "mlp"
	servePool                       = 2048 // distinct request bodies, cycled
	// serveSLO is the latency limit on a ladder step's p99. It is looser
	// than the 5 ms the serving path needs at light load because on a
	// shared 2-vCPU host the open-loop generator alone runs up to 5–25 ms
	// late at its 99th percentile (gen.lag_ms_p99).
	serveSLO = 25 * time.Millisecond
	// serveMaxInFlight caps outstanding requests. A request due while the
	// cap is reached is not sent and counts as missing the SLO; the cap is
	// far above anything a step within the SLO keeps in flight.
	serveMaxInFlight = 4096
	// serveCallers is the number of closed-loop callers that measure
	// capacity, as in BenchmarkServePredict.
	serveCallers    = 64
	serveLadderStep = 500 * time.Millisecond
)

// The rates (requests/s) of the load ladder, fixed once on the commit that
// defined this benchmark: serveLow is about 10% and serveMid about 50% of
// that commit's saturation, and the ladder climbs geometrically past twice
// its saturation.
var (
	serveLow    = 2500.0
	serveMid    = 12500.0
	serveLadder = []float64{2500, 3200, 4100, 5300, 6800, 8700, 11000, 14000, 18000, 23000, 29000, 37000, 48000, 60000}
)

type serveRequest struct {
	body []byte
	rows int
	// want is the unbatched Model.Predict output for the same rows, and
	// wantBody the response a correct server sends for it.
	want     []float32
	wantBody []byte
}

// serveModelGraph builds the narrow-deep MLP with seeded weights.
func serveModelGraph(seed int64) (*tf.Graph, tf.Output, tf.Output) {
	g := tf.NewGraph()
	g.SetSeed(seed)
	x := g.Placeholder("x", tf.Float32, tf.Shape{1, serveCols})
	h := x
	for i := 0; i < serveDepth; i++ {
		h, _ = nn.Dense(g, fmt.Sprintf("hidden%d", i), h, serveCols, nn.ReLU)
	}
	logits, _ := nn.Dense(g, "out", h, serveOut, nn.Linear)
	return g, x, logits
}

// exportServeModel trains nothing: it initializes, freezes with a relaxed
// batch dimension, and exports version 1 under root.
func exportServeModel(seed int64, root string) error {
	g, x, logits := serveModelGraph(seed)
	sess, err := tf.NewSession(g)
	if err != nil {
		return err
	}
	defer sess.Close()
	if err := sess.RunTargets(g.InitOp()); err != nil {
		return err
	}
	frozen, err := tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "x", Output: x}},
		[]tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{BatchDim: true})
	if err != nil {
		return err
	}
	return frozen.Export(root, serveName, 1)
}

// serveSetup is one set-up instance: an exported model served by a
// registry behind the HTTP handler.
type serveSetup struct {
	root    string
	reg     *serving.Registry
	handler http.Handler
}

func (s *serveSetup) close() {
	s.reg.Close()
	os.RemoveAll(s.root)
}

func setupServe(seed int64, root string, first *serveRequest) (*serveSetup, error) {
	if err := exportServeModel(seed, root); err != nil {
		return nil, err
	}
	reg := serving.NewRegistry(root, serving.ModelOptions{MaxBatch: 64, Window: time.Millisecond})
	if err := reg.LoadAll(); err != nil {
		reg.Close()
		return nil, err
	}
	s := &serveSetup{root: root, reg: reg, handler: serving.NewServer(reg).Handler()}
	if code, _ := s.do(first.body); code != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("first request failed with status %d", code)
	}
	return s, nil
}

var predictURL = &url.URL{Path: "/v1/models/" + serveName + ":predict"}

// respWriter is a minimal in-memory http.ResponseWriter.
type respWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.header }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

// do sends one request body through the handler.
func (s *serveSetup) do(body []byte) (int, []byte) {
	req := &http.Request{
		Method: http.MethodPost, URL: predictURL, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}}, Host: "perfbench",
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
		RequestURI: predictURL.Path,
	}
	w := &respWriter{header: http.Header{}}
	s.handler.ServeHTTP(w, req)
	return w.code, w.buf.Bytes()
}

// serveRequests generates the request pool and, with an unbatched model
// loaded from root, the expected output of each request.
func serveRequests(seed int64, root string) ([]*serveRequest, *serving.Model, error) {
	ref, err := serving.LoadModel(root, serveName, 1, serving.ModelOptions{})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	pool := make([]*serveRequest, servePool)
	for i := range pool {
		rows := 1
		if rng.Float64() < 0.1 {
			rows = 8
		}
		vals := make([]float32, rows*serveCols)
		var body bytes.Buffer
		fmt.Fprintf(&body, `{"inputs":{"x":{"shape":[%d,%d],"values":[`, rows, serveCols)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
			if j > 0 {
				body.WriteByte(',')
			}
			body.WriteString(strconv.FormatFloat(float64(vals[j]), 'g', -1, 32))
		}
		body.WriteString(`]}}}`)
		outs, err := ref.Predict([]*tensor.Tensor{tensor.FromFloat32s(tensor.Shape{rows, serveCols}, vals)})
		if err != nil {
			ref.Close()
			return nil, nil, err
		}
		var wantBody bytes.Buffer
		if err := json.NewEncoder(&wantBody).Encode(serving.PredictResponse{
			Model: serveName, Version: 1,
			Outputs: map[string]serving.RespTensor{"logits": serving.EncodeTensor(outs[0])},
		}); err != nil {
			ref.Close()
			return nil, nil, err
		}
		pool[i] = &serveRequest{body: body.Bytes(), rows: rows,
			want: append([]float32(nil), outs[0].Float32s()...), wantBody: wantBody.Bytes()}
	}
	return pool, ref, nil
}

// matches reports whether a response body carries the expected logits to
// 1e-6 (relative above magnitude 1).
func (r *serveRequest) matches(body []byte) bool {
	if bytes.Equal(body, r.wantBody) {
		return true
	}
	var resp struct {
		Outputs map[string]struct {
			Values []float64 `json:"values"`
		} `json:"outputs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	got := resp.Outputs["logits"].Values
	if len(got) != len(r.want) {
		return false
	}
	for i, w := range r.want {
		if math.Abs(got[i]-float64(w)) > 1e-6*math.Max(1, math.Abs(float64(w))) {
			return false
		}
	}
	return true
}

// stepResult is one open-loop step at a fixed rate.
type stepResult struct {
	Rate     float64 `json:"rate"`
	Sent     int     `json:"sent"`
	Shed     int     `json:"shed"`
	Rows     int     `json:"rows"`
	Failed   int     `json:"failed"`
	P50      float64 `json:"p50_ms"`
	P90      float64 `json:"p90_ms"`
	P99      float64 `json:"p99_ms"` // a shed request counts as infinitely late
	Backlog  int     `json:"backlog_end"`
	Pass     bool    `json:"pass"`
	RowsPerS float64 `json:"rows_per_s"`
	lag      []float64
}

// waitUntil returns at t. Go's timers wake at millisecond granularity, so
// the last two milliseconds are spent yielding to other goroutines rather
// than sleeping; the generator stays punctual without holding a processor
// another goroutine could use.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends requests as Poisson arrivals at rate for dur. Each is
// timed from the moment it was due; the generator records how late it
// sent each one.
func openLoop(rng *rand.Rand, pool []*serveRequest, rate float64, dur time.Duration, maxInFlight int64,
	send func(*serveRequest) (ok bool)) stepResult {
	res := stepResult{Rate: rate}
	slots := int(rate*dur.Seconds()*1.5) + 256
	lat := make([]float64, slots)
	var inflight atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= dur || res.Sent+res.Shed >= slots {
			break
		}
		waitUntil(due)
		res.lag = append(res.lag, ms(time.Since(due)))
		r := pool[rng.Intn(len(pool))]
		if inflight.Load() >= maxInFlight {
			res.Shed++
			continue
		}
		idx := res.Sent
		res.Sent++
		res.Rows += r.rows
		inflight.Add(1)
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			ok := send(r)
			lat[idx] = ms(time.Since(due))
			if !ok {
				failed.Add(1)
			}
		}(due)
	}
	window := time.Since(start)
	res.Backlog = int(inflight.Load())
	wg.Wait()
	res.Failed = int(failed.Load())
	all := lat[:res.Sent]
	for i := 0; i < res.Shed; i++ {
		all = append(all, math.Inf(1))
	}
	d := summarize(all)
	res.P50, res.P99 = d.P50, d.P99
	sort.Float64s(all)
	res.P90 = quantile(all, 0.9)
	res.RowsPerS = float64(res.Rows) / window.Seconds()
	// Within the SLO: p99 under the limit, nothing failed or shed, and no
	// more left in flight at the end than 10 ms of arrivals (the backlog
	// is not growing).
	res.Pass = res.P99 <= ms(serveSLO) && res.Failed == 0 && res.Shed == 0 &&
		float64(res.Backlog) <= rate*0.010+8
	// A percentile that falls on shed requests is infinite; JSON has no
	// infinity, so the record shows -1.
	for _, p := range []*float64{&res.P90, &res.P99} {
		if math.IsInf(*p, 1) {
			*p = -1
		}
	}
	return res
}

func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	base, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	// The request pool and the reference outputs come from an export of
	// the same seeded model.
	refRoot := filepath.Join(base, "ref")
	if err := exportServeModel(cfg.seed, refRoot); err != nil {
		return nil, err
	}
	pool, ref, err := serveRequests(cfg.seed, refRoot)
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	setups := 0
	s, setupT, err := setUp(func() (*serveSetup, error) {
		setups++
		return setupServe(cfg.seed, filepath.Join(base, fmt.Sprintf("setup%d", setups)), pool[0])
	}, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out.setup(setupT)

	rng := rand.New(rand.NewSource(cfg.seed))
	send := func(r *serveRequest) bool {
		code, body := s.do(r.body)
		return code == http.StatusOK && r.matches(body)
	}
	account := func(st stepResult) {
		out.attempted += int64(st.Sent)
		out.failed += int64(st.Failed)
	}
	if cfg.trace {
		return out, traceServe(cfg, out, s, ref, pool, rng, send, account)
	}

	low := openLoop(rng, pool, serveLow, cfg.budget(0.15), serveMaxInFlight, send)
	account(low)
	mid := openLoop(rng, pool, serveMid, cfg.budget(0.3), serveMaxInFlight, send)
	account(mid)
	// Capacity: closed-loop callers keep the handler saturated; the rows
	// answered per second, median over one-second windows. On a 2-vCPU
	// host an open loop offered past saturation measured the same capacity
	// with about twice the run-to-run spread. CPU time and the heap are
	// measured here only: the open-loop generator spins while it waits for
	// each due time, and in the open-loop steps a host stall leaves a
	// backlog whose size depends on the host, not on the program.
	heap := startHeapSampler(10 * time.Millisecond)
	cpu0 := cpuSeconds()
	var windows []float64
	var capRows int64
	for end := time.Now().Add(cfg.budget(0.25)); len(windows) == 0 || time.Now().Before(end); {
		rows, elapsed, sent, failed := closedLoop(pool, serveCallers, time.Second, send)
		out.attempted += sent
		out.failed += failed
		capRows += rows
		windows = append(windows, float64(rows)/elapsed.Seconds())
	}
	cpuPerRow := 1e3 * (cpuSeconds() - cpu0) / float64(max(capRows, 1))
	memPeak := heap.Stop()
	// One ladder sweep, up to the first step that misses the SLO.
	var steps []stepResult
	var maxRate float64
	for _, rate := range serveLadder {
		st := openLoop(rng, pool, rate, serveLadderStep, serveMaxInFlight, send)
		account(st)
		steps = append(steps, st)
		if !st.Pass {
			break
		}
		maxRate = rate
	}

	capacity := median(windows)
	out.e2e["cpu_ms_per_example"] = cpuPerRow
	out.e2e["mem_peak_mb"] = memPeak
	out.figure("cpu_ms_per_example", cpuPerRow, fmt.Sprintf("ms per row (process CPU time over the %d-caller capacity step)", serveCallers), int(capRows))
	out.figure("examples_per_s", capacity, fmt.Sprintf("rows/s answered to %d closed-loop callers (median of 1 s windows)", serveCallers), len(windows))
	out.figure("rps_max_in_slo", maxRate, fmt.Sprintf("req/s (highest ladder rate with p99 <= %v)", serveSLO), len(steps))
	out.figure("step_ms_p50", low.P50, "ms (= req_ms_p50.low)", low.Sent)
	out.figure("step_ms_p99", low.P99, "ms (= req_ms_p99.low)", low.Sent)
	out.figure("req_ms_p50.low", low.P50, "ms", low.Sent)
	out.figure("req_ms_p99.low", low.P99, "ms", low.Sent)
	out.figure("req_ms_p50.mid", mid.P50, "ms", mid.Sent)
	out.figure("req_ms_p99.mid", mid.P99, "ms", mid.Sent)
	out.figure("mem_peak_mb", memPeak, "MB", 1)
	lag := summarize(append(append([]float64(nil), low.lag...), mid.lag...))
	out.figure("gen.lag_ms_p99", lag.P99, "ms (low and mid steps)", lag.N)
	out.figure("failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), "ratio", int(out.attempted))
	out.detail["ladder_steps"] = steps
	out.detail["ladder_rates"] = serveLadder
	return out, nil
}

// traceServe is the traced run of serve_http_openloop: a plain and a
// traced step at the mid rate through the handler, a traced replay of the
// handler's sequence through the public functions, then the probes.
func traceServe(cfg config, out *outcome, s *serveSetup, ref *serving.Model, pool []*serveRequest,
	rng *rand.Rand, send func(*serveRequest) bool, account func(stepResult)) error {
	seg := cfg.budget(0.2)
	before := readRuntimeCounters()
	plain := openLoop(rng, pool, serveMid, seg, serveMaxInFlight, send)
	goMetrics(before, readRuntimeCounters(), int64(plain.Sent), out.layer)
	account(plain)
	lag := summarize(plain.lag)
	out.layer["gen.lag_ms_p99"] = lag.P99
	out.figure("gen.lag_ms_p99", lag.P99, "ms", lag.N)

	tr := newTracer()
	var reqID atomic.Int64
	traced := openLoop(rng, pool, serveMid, seg, serveMaxInFlight, func(r *serveRequest) bool {
		var ok bool
		id := "req " + strconv.FormatInt(reqID.Add(1), 10)
		tr.timed(span{Name: "ServeHTTP", Layer: "serve.http", Lane: "http", ID: id}, func() { ok = send(r) })
		return ok
	})
	account(traced)
	out.layer["trace.overhead_frac"] = traced.P50/plain.P50 - 1
	out.figure("trace.overhead_frac", out.layer["trace.overhead_frac"], "ratio (traced vs plain p50 latency at the mid rate)", traced.Sent)

	// Replay: the handler's sequence, one public call at a time.
	m := s.reg.Model(serveName)
	if m == nil {
		return fmt.Errorf("model %q not loaded", serveName)
	}
	var mu sync.Mutex
	var decode, predict, encode []float64
	replay := openLoop(rng, pool, serveMid, seg, serveMaxInFlight, func(r *serveRequest) bool {
		id := "replay " + strconv.FormatInt(reqID.Add(1), 10)
		key := "replay/" + id
		root := time.Now()
		t0 := time.Now()
		preq, err := serving.ParsePredictRequest(r.body)
		if err != nil {
			return false
		}
		x, err := preq.Inputs["x"].Bind(m.Sig.Inputs[0])
		if err != nil {
			return false
		}
		t1 := time.Now()
		outs, version, err := s.reg.PredictContext(context.Background(), serveName, []*tensor.Tensor{x})
		if err != nil {
			return false
		}
		t2 := time.Now()
		var body bytes.Buffer
		err = json.NewEncoder(&body).Encode(serving.PredictResponse{Model: serveName, Version: version,
			Outputs: map[string]serving.RespTensor{"logits": serving.EncodeTensor(outs[0])}})
		t3 := time.Now()
		for _, sp := range []span{
			{Name: "replay", Layer: "serve.replay", Start: tr.since(root), End: tr.since(t3), Key: key},
			{Name: "ParsePredictRequest+Bind", Layer: "serve.decode", Start: tr.since(t0), End: tr.since(t1)},
			{Name: "Registry.PredictContext", Layer: "serve.predict", Start: tr.since(t1), End: tr.since(t2)},
			{Name: "EncodeTensor+json", Layer: "serve.encode", Start: tr.since(t2), End: tr.since(t3)},
		} {
			sp.Lane, sp.ID = "replay", id
			if sp.Key == "" {
				sp.ParentKey = key
			}
			tr.record(sp)
		}
		mu.Lock()
		decode = append(decode, us(t1.Sub(t0)))
		predict = append(predict, us(t2.Sub(t1)))
		encode = append(encode, us(t3.Sub(t2)))
		mu.Unlock()
		return err == nil && r.matches(body.Bytes())
	})
	account(replay)
	dd, pd, ed := summarize(decode), summarize(predict), summarize(encode)
	out.layer["serve.decode.us_p50"] = dd.P50
	out.layer["serve.predict.us_p50"] = pd.P50
	out.layer["serve.predict.us_p99"] = pd.P99
	out.layer["serve.encode.us_p50"] = ed.P50
	out.figure("serve.decode.us_p50", dd.P50, "us", dd.N)
	out.figure("serve.predict.us_p50", pd.P50, "us", pd.N)
	out.figure("serve.predict.us_p99", pd.P99, "us", pd.N)
	out.figure("serve.encode.us_p50", ed.P50, "us", ed.N)

	for _, rows := range []int{1, 64} {
		x := tensor.New(tensor.Float32, tensor.Shape{rows, serveCols})
		v, n, err := probeLatency(func() error {
			_, err := ref.Predict([]*tensor.Tensor{x})
			return err
		})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("serve.exec.us.rows%d", rows)
		out.layer[name] = v * 1e6
		out.figure(name, v*1e6, "us (unbatched Model.Predict)", n)
	}

	// The first Run of a freshly loaded copy of the served graph.
	fresh, err := serving.LoadModel(s.root, serveName, 1, serving.ModelOptions{})
	if err != nil {
		return err
	}
	start := time.Now()
	err = fresh.Warm()
	out.layer["session.compile.ms"] = ms(time.Since(start))
	fresh.Close()
	if err != nil {
		return err
	}
	out.figure("session.compile.ms", out.layer["session.compile.ms"], "ms (Model.Warm of a fresh load)", 1)
	passes, err := passesMs(func() (*tf.Graph, error) {
		g, _, _ := serveModelGraph(cfg.seed)
		return g, g.Err()
	})
	if err != nil {
		return err
	}
	out.layer["graph.passes.ms"] = passes
	out.figure("graph.passes.ms", passes, "ms", setupReps)

	if err := runProbes(out, cfg.workload); err != nil {
		return err
	}
	return writeTrace(cfg, out, tr, tr.snapshot())
}

// closedLoop runs callers that each send the next request as soon as the
// previous one returns, for dur. It returns the rows answered, the time
// taken, and the requests sent and failed.
func closedLoop(pool []*serveRequest, callers int, dur time.Duration,
	send func(*serveRequest) bool) (rows int64, elapsed time.Duration, sent, failed int64) {
	var nRows, nSent, nFailed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Since(start) < dur; i += callers {
				r := pool[i%len(pool)]
				nSent.Add(1)
				if !send(r) {
					nFailed.Add(1)
					continue
				}
				nRows.Add(int64(r.rows))
			}
		}(c)
	}
	wg.Wait()
	return nRows.Load(), time.Since(start), nSent.Load(), nFailed.Load()
}
