package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
	"repro/tf"
)

// Layer probes: each drives one layer's public functions directly,
// warms up, then repeats the call for a fixed time and reports the median
// over the samples with the sample count. They run only in traced runs.
const (
	probeWarm = 50 * time.Millisecond
	probeTime = 250 * time.Millisecond
)

// probe repeats fn — which returns the work one call did, in the probe's
// own unit — and returns the median of work/second over the samples.
func probe(fn func() (float64, error)) (rate float64, n int, err error) {
	deadline := time.Now().Add(probeWarm)
	for time.Now().Before(deadline) {
		if _, err := fn(); err != nil {
			return 0, 0, err
		}
	}
	var rates []float64
	deadline = time.Now().Add(probeTime)
	for time.Now().Before(deadline) || len(rates) < 5 {
		start := time.Now()
		work, err := fn()
		if err != nil {
			return 0, 0, err
		}
		rates = append(rates, work/time.Since(start).Seconds())
	}
	return median(rates), len(rates), nil
}

// probeLatency is probe for a call whose cost is its latency: it returns
// the median seconds per call.
func probeLatency(fn func() error) (float64, int, error) {
	rate, n, err := probe(func() (float64, error) { return 1, fn() })
	return 1 / rate, n, err
}

// runProbes runs the layer probes of one workload — those whose metric
// that workload should move — and stores their per-layer metrics. The
// other probes' metrics stay 0 in that workload's traced run.
func runProbes(out *outcome, workload string) error {
	type step struct {
		name, unit string
		scale      float64 // metric = probe result × scale
		latency    bool
		run        func() (float64, error) // work per call (rate probes)
		call       func() error            // latency probes
	}
	var steps []step
	switch workload {
	case "local_mlp_train":
		steps = []step{
			{name: "tensor.matmul.gflops", unit: "GFLOP/s", scale: 1e-9, run: matmulProbe()},
			{name: "tensor.elementwise.gbps", unit: "GB/s", scale: 1e-9, run: elementwiseProbe()},
		}
		flops, share := mlpFlops()
		out.layer["tensor.flops_per_step"] = flops / 1e6
		out.layer["tensor.matmul_share"] = share
		out.figure("tensor.flops_per_step", flops/1e6, "MFLOP (local_mlp_train step, from shapes)", 1)
		out.figure("tensor.matmul_share", share, "ratio (matmul FLOPs over all FLOPs of a local_mlp_train step)", 1)
	case "ps_sync_embed_tcp":
		steps = []step{
			{name: "tensor.codec.mb_s", unit: "MB/s", scale: 1e-6, run: codecProbe()},
			{name: "rendezvous.sendrecv.ns", unit: "ns", scale: 1e9, latency: true, call: rendezvousProbe()},
		}
		for _, tcp := range []bool{false, true} {
			v, n, err := masterNullStepProbe(tcp)
			if err != nil {
				return fmt.Errorf("master null-step probe (tcp=%v): %w", tcp, err)
			}
			name := "master.null_step.us.inproc"
			if tcp {
				name = "master.null_step.us.tcp"
			}
			out.layer[name] = v * 1e6
			out.figure(name, v*1e6, "us", n)
		}
	case "serve_http_openloop":
		nullOps, closeNullOps, err := nullOpsProbe()
		if err != nil {
			return err
		}
		defer closeNullOps()
		trivial, closeTrivial, err := trivialRunProbe()
		if err != nil {
			return err
		}
		defer closeTrivial()
		steps = []step{
			{name: "exec.null_ops.mops_per_s", unit: "Mop/s", scale: 1e-6, run: nullOps},
			{name: "session.run_trivial.us", unit: "us", scale: 1e6, latency: true, call: trivial},
		}
	}
	for _, st := range steps {
		var v float64
		var n int
		var err error
		if st.latency {
			v, n, err = probeLatency(st.call)
		} else {
			v, n, err = probe(st.run)
		}
		if err != nil {
			return fmt.Errorf("probe %s: %w", st.name, err)
		}
		out.layer[st.name] = v * st.scale
		out.figure(st.name, v*st.scale, st.unit, n)
	}
	return nil
}

func randomTensor(rng *rand.Rand, shape tensor.Shape) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	for i, f := 0, t.Float32s(); i < len(f); i++ {
		f[i] = float32(rng.NormFloat64())
	}
	return t
}

// matmulProbe runs every matmul of one local_mlp_train step — forward
// x·W, backward dW = xᵀ·dy and dx = dy·Wᵀ (none for the input layer) — at
// the workload's shapes, returning the FLOPs done.
func matmulProbe() func() (float64, error) {
	rng := rand.New(rand.NewSource(7))
	type mm struct {
		a, b, dst *tensor.Tensor
		ta, tb    bool
		m, k, n   int
	}
	var calls []mm
	for i, l := range mlpLayers {
		in, outDim := l[0], l[1]
		x := randomTensor(rng, tensor.Shape{mlpBatch, in})
		w := randomTensor(rng, tensor.Shape{in, outDim})
		dy := randomTensor(rng, tensor.Shape{mlpBatch, outDim})
		calls = append(calls,
			mm{a: x, b: w, dst: tensor.New(tensor.Float32, tensor.Shape{mlpBatch, outDim}), m: mlpBatch, k: in, n: outDim},
			mm{a: x, b: dy, ta: true, dst: tensor.New(tensor.Float32, tensor.Shape{in, outDim}), m: in, k: mlpBatch, n: outDim})
		if i > 0 {
			calls = append(calls, mm{a: dy, b: w, tb: true, dst: tensor.New(tensor.Float32, tensor.Shape{mlpBatch, in}),
				m: mlpBatch, k: outDim, n: in})
		}
	}
	return func() (float64, error) {
		var flops float64
		for _, c := range calls {
			if _, err := tensor.MatMulInto(c.dst, c.a, c.b, c.ta, c.tb); err != nil {
				return 0, err
			}
			flops += 2 * float64(c.m*c.k*c.n)
		}
		return flops, nil
	}
}

// elementwiseProbe runs the elementwise kernels of a local_mlp_train step
// at its hidden shape — bias add with broadcast, ReLU backprop, and the
// bias-gradient column sum — returning the bytes read plus written.
func elementwiseProbe() func() (float64, error) {
	rng := rand.New(rand.NewSource(8))
	act := randomTensor(rng, tensor.Shape{mlpBatch, mlpHidden})
	grad := randomTensor(rng, tensor.Shape{mlpBatch, mlpHidden})
	bias := randomTensor(rng, tensor.Shape{mlpHidden})
	dst := tensor.New(tensor.Float32, tensor.Shape{mlpBatch, mlpHidden})
	dst2 := tensor.New(tensor.Float32, tensor.Shape{mlpBatch, mlpHidden})
	mat := float64(mlpBatch * mlpHidden * 4)
	vec := float64(mlpHidden * 4)
	return func() (float64, error) {
		if _, err := tensor.BinaryInto(dst, tensor.OpAdd, act, bias); err != nil {
			return 0, err
		}
		if _, err := tensor.ReluGradInto(dst2, grad, act); err != nil {
			return 0, err
		}
		if _, err := tensor.Reduce(tensor.ReduceSum, grad, []int{0}, false); err != nil {
			return 0, err
		}
		// add: read mat+vec, write mat; relu grad: read 2 mat, write mat;
		// column sum: read mat, write vec.
		return (2*mat + vec) + 3*mat + (mat + vec), nil
	}
}

// codecProbe gob-encodes and decodes the ps_sync_embed_tcp table and one
// 256×32 row block, returning the tensor bytes moved through the codec.
func codecProbe() func() (float64, error) {
	rng := rand.New(rand.NewSource(9))
	table := randomTensor(rng, tensor.Shape{embVocab, embDim})
	rows := randomTensor(rng, tensor.Shape{256, embDim})
	return func() (float64, error) {
		var n float64
		for _, t := range []*tensor.Tensor{table, rows} {
			data, err := t.GobEncode()
			if err != nil {
				return 0, err
			}
			var back tensor.Tensor
			if err := back.GobDecode(data); err != nil {
				return 0, err
			}
			n += float64(t.ByteSize())
		}
		return n, nil
	}
}

// nullOpsProbe runs 32 chains of 128 Identity ops through a session with
// optimizations off, returning the ops dispatched.
func nullOpsProbe() (func() (float64, error), func(), error) {
	const chains, depth = 32, 128
	g := tf.NewGraph()
	var lasts []tf.Output
	for c := 0; c < chains; c++ {
		cur := g.Const(float32(c))
		for d := 0; d < depth; d++ {
			cur = g.Identity(cur)
		}
		lasts = append(lasts, cur)
	}
	final := g.AddN(lasts...)
	sess, err := tf.NewSession(g, tf.SessionOptions{DisableOptimizations: true})
	if err != nil {
		return nil, nil, err
	}
	ops := float64(chains*(depth+1) + 1)
	return func() (float64, error) {
		_, err := sess.Fetch1(nil, final)
		return ops, err
	}, sess.Close, nil
}

// trivialRunProbe runs a one-node graph.
func trivialRunProbe() (func() error, func(), error) {
	g := tf.NewGraph()
	c := g.Const(float32(1))
	sess, err := tf.NewSession(g)
	if err != nil {
		return nil, nil, err
	}
	return func() error {
		_, err := sess.Fetch1(nil, c)
		return err
	}, sess.Close, nil
}

// rendezvousProbe does one Local.Send + Recv pair.
func rendezvousProbe() func() error {
	r := rendezvous.NewLocal()
	v := ops.Value{Tensor: tensor.Scalar(1)}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("step 1;/job:a/task:0/device:CPU:0;/job:a/task:0/device:CPU:0;edge_%d", i)
	}
	i := 0
	return func() error {
		k := keys[i%len(keys)]
		i++
		if err := r.Send(k, v); err != nil {
			return err
		}
		_, err := r.Recv(k, nil)
		return err
	}
}

// oneRecvGraph is the master probe graph: a 256×256 float32 variable on the
// ps task, summed on the worker task, so each step moves the variable
// across tasks with exactly one RecvTensor.
func oneRecvGraph() (g *graph.Graph, init *graph.Node, fetch graph.Endpoint, err error) {
	g = graph.New()
	v, err := g.AddNode("Variable", nil, graph.NodeArgs{
		Name:   "w",
		Attrs:  map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{256, 256}},
		Device: "/job:ps/task:0",
	})
	if err != nil {
		return
	}
	c, err := g.AddNode("Const", nil, graph.NodeArgs{
		Name: "init", Attrs: map[string]any{"value": tensor.New(tensor.Float32, tensor.Shape{256, 256})},
	})
	if err != nil {
		return
	}
	asg, err := g.AddNode("Assign", []graph.Endpoint{v.Out(0), c.Out(0)}, graph.NodeArgs{Name: "assign"})
	if err != nil {
		return
	}
	read, err := g.AddNode("Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Name: "read"})
	if err != nil {
		return
	}
	sum, err := g.AddNode("Sum", []graph.Endpoint{read.Out(0)}, graph.NodeArgs{
		Name: "sum", Device: "/job:worker/task:0",
	})
	if err != nil {
		return
	}
	return g, asg, sum.Out(0), nil
}

// oneRecvCluster starts a ps and a worker task, in process or each behind
// distributed.Serve on loopback TCP, and returns the spec, a resolver
// for the tasks, and a stop function.
func oneRecvCluster(tcp bool, wrap func(distributed.Resolver, string) distributed.Resolver) (
	distributed.ClusterSpec, distributed.Resolver, func(), error) {
	spec := distributed.ClusterSpec{"ps": {""}, "worker": {""}}
	if !tcp {
		cluster := distributed.NewInProcCluster(spec)
		return spec, cluster.Resolver(), func() {}, nil
	}
	resolver, servers, err := serveTCP(spec, wrap)
	if err != nil {
		return nil, nil, nil, err
	}
	return spec, resolver, func() {
		for _, s := range servers {
			s.Close()
		}
	}, nil
}

func plainResolver(r distributed.Resolver, _ string) distributed.Resolver { return r }

// masterNullStepProbe times Master.Run of the one-Recv graph.
func masterNullStepProbe(tcp bool) (float64, int, error) {
	spec, resolver, stop, err := oneRecvCluster(tcp, plainResolver)
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	g, init, fetch, err := oneRecvGraph()
	if err != nil {
		return 0, 0, err
	}
	m, err := distributed.NewMaster(g, spec, resolver, distributed.MasterOptions{})
	if err != nil {
		return 0, 0, err
	}
	if _, err := m.Run(nil, nil, []*graph.Node{init}); err != nil {
		return 0, 0, err
	}
	fetches := []graph.Endpoint{fetch}
	return probeLatency(func() error {
		_, err := m.Run(nil, fetches, nil)
		return err
	})
}

// writeTrace writes the Chrome trace and the per-layer self-time roll-up.
func writeTrace(cfg config, out *outcome, tr *tracer, spans []span) error {
	linkParents(spans)
	roll := rollup(spans)
	out.detail["self_time_rollup"] = roll
	out.figure("trace.spans", float64(len(spans)), "count", len(spans))
	tr.mu.Lock()
	out.figure("trace.spans_dropped", float64(tr.dropped), "count", tr.dropped)
	tr.mu.Unlock()
	base := fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)
	path := filepath.Join(cfg.outDir, base)
	out.detail["trace_file"] = path
	return writeChromeTrace(path, spans, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "rollup": roll})
}
