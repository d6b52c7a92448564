package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
)

// ps_sync_embed_tcp: two PS tasks and two worker tasks, each a
// distributed.Worker behind distributed.Serve on loopback TCP, trained by
// train.NewReplicated with Sync, PS-side apply and Adagrad{0.1, 0.1}. The
// model reads an embedding table of 50 000×32 with Gather(emb.Value(),
// ids), concatenates the 8 rows of each example and feeds them through a
// dense 256→64 ReLU layer and a 10-way softmax.
const (
	embVocab, embDim = 50_000, 32
	embIDs           = 8 // ids per example, Zipf(s=1.1)
	embHidden        = 64
	embClasses       = 10
	embBatch         = 32 // per worker
	embWorkers       = 2
	embPS            = 2
	embPoolBatches   = 64 // per worker, cycled
	embHeldOut       = 512
	// embFixedRounds is the round count after which loss_final is measured.
	embFixedRounds = 150
)

// embParams are the model's initial values, shared by every replica and
// the evaluation graph so that same-named variables agree.
type embParams struct {
	names []string
	inits []*tf.Tensor
}

func normalTensor(rng *rand.Rand, shape tf.Shape, std float64) *tf.Tensor {
	t := tf.NewTensor(tf.Float32, shape)
	for i, f := 0, t.Float32s(); i < len(f); i++ {
		f[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

func newEmbParams(rng *rand.Rand) embParams {
	in := embIDs * embDim
	return embParams{
		names: []string{"emb", "fc/w", "fc/b", "head/w", "head/b"},
		inits: []*tf.Tensor{
			normalTensor(rng, tf.Shape{embVocab, embDim}, 0.1),
			normalTensor(rng, tf.Shape{in, embHidden}, 1/math.Sqrt(float64(in))),
			tf.NewTensor(tf.Float32, tf.Shape{embHidden}),
			normalTensor(rng, tf.Shape{embHidden, embClasses}, 1/math.Sqrt(embHidden)),
			tf.NewTensor(tf.Float32, tf.Shape{embClasses}),
		},
	}
}

// embForward builds the model into g, creating variables in a fixed order
// through newVar, and returns the inputs and the mean loss.
func embForward(g *tf.Graph, newVar func(string, *tf.Tensor) *tf.Variable, p embParams, batch int) (ids, labels, loss tf.Output, vars []*tf.Variable) {
	for i, name := range p.names {
		vars = append(vars, newVar(name, p.inits[i]))
	}
	ids = g.Placeholder("ids", tf.Int32, tf.Shape{batch * embIDs})
	labels = g.Placeholder("labels", tf.Int32, tf.Shape{batch})
	rows := g.Reshape(g.Gather(vars[0].Value(), ids), tf.Shape{batch, embIDs * embDim})
	h := g.Relu(g.BiasAdd(g.MatMul(rows, vars[1].Value()), vars[2].Value()))
	logits := g.BiasAdd(g.MatMul(h, vars[3].Value()), vars[4].Value())
	return ids, labels, nn.CrossEntropyLoss(g, logits, labels, 0, nil), vars
}

type embBatchData struct{ ids, labels *tf.Tensor }

// embData draws Zipf ids and labels from a random teacher that scores each
// id per class; an example's label is the argmax of its ids' summed
// scores, with 5% label noise.
func embData(seed int64) (embParams, [][]embBatchData, embBatchData) {
	rng := rand.New(rand.NewSource(seed))
	params := newEmbParams(rng)
	teacher := make([]float32, embVocab*embClasses)
	for i := range teacher {
		teacher[i] = float32(rng.NormFloat64())
	}
	zipf := rand.NewZipf(rng, 1.1, 1, embVocab-1)
	gen := func(n int) embBatchData {
		ids := make([]int32, n*embIDs)
		labels := make([]int32, n)
		for i := 0; i < n; i++ {
			var score [embClasses]float64
			for j := 0; j < embIDs; j++ {
				id := int32(zipf.Uint64())
				ids[i*embIDs+j] = id
				for c := range score {
					score[c] += float64(teacher[int(id)*embClasses+c])
				}
			}
			best := 0
			for c := range score {
				if score[c] > score[best] {
					best = c
				}
			}
			labels[i] = int32(best)
			if rng.Float64() < 0.05 {
				labels[i] = int32(rng.Intn(embClasses))
			}
		}
		return embBatchData{tf.FromInt32s(tf.Shape{n * embIDs}, ids), tf.FromInt32s(tf.Shape{n}, labels)}
	}
	pools := make([][]embBatchData, embWorkers)
	for w := range pools {
		for b := 0; b < embPoolBatches; b++ {
			pools[w] = append(pools[w], gen(embBatch))
		}
	}
	return params, pools, gen(embHeldOut)
}

// psCluster is one set-up instance of the workload.
type psCluster struct {
	servers []*distributed.Server
	r       *train.Replicated
	eval    *distributed.Master
	evalIDs graph.Endpoint
	evalLab graph.Endpoint
	evalEP  graph.Endpoint
	// firstStep is the first TrainStep round (the compiling step).
	firstStep time.Duration
}

func (c *psCluster) close() {
	if c.r != nil {
		c.r.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// serveTCP serves every task of spec behind distributed.Serve on loopback
// TCP and fills in spec's addresses. Each task resolves its peers through
// wrap(resolver, task); the returned resolver is the plain TCP one.
func serveTCP(spec distributed.ClusterSpec, wrap func(distributed.Resolver, string) distributed.Resolver) (
	distributed.Resolver, []*distributed.Server, error) {
	var resolver distributed.Resolver
	indirect := func(task string) (distributed.Transport, error) { return resolver(task) }
	var servers []*distributed.Server
	jobs := make([]string, 0, len(spec))
	for job := range spec {
		jobs = append(jobs, job)
	}
	sort.Strings(jobs)
	for _, job := range jobs {
		for i := range spec[job] {
			srv, err := distributed.Serve(distributed.NewWorker(job, i, wrap(indirect, distributed.TaskName(job, i))), "127.0.0.1:0")
			if err != nil {
				for _, s := range servers {
					s.Close()
				}
				return nil, nil, err
			}
			servers = append(servers, srv)
			spec[job][i] = srv.Addr()
		}
	}
	resolver = distributed.TCPResolver(spec)
	return resolver, servers, nil
}

// startPSCluster serves every task on loopback TCP, builds the trainer and
// the evaluation graph, initializes the state and runs the first round.
// With rec non-nil, every resolver — the trainer's and each task's own —
// goes through the counting decorator.
func startPSCluster(params embParams, first [embWorkers]embBatchData, rec *rpcRecorder) (*psCluster, error) {
	wrap := plainResolver
	if rec != nil {
		wrap = rec.Resolver
	}
	spec := distributed.ClusterSpec{"ps": make([]string, embPS), "worker": make([]string, embWorkers)}
	resolver, servers, err := serveTCP(spec, wrap)
	if err != nil {
		return nil, err
	}
	c := &psCluster{servers: servers}
	client := wrap(resolver, "client")

	r, err := train.NewReplicated(train.ReplicatedOptions{
		Cluster: spec, Resolver: client,
		Optimizer: &train.Adagrad{LearningRate: 0.1, InitialAccum: 0.1},
		Sync:      true,
	}, func(rb *train.ReplicaGraph) (*train.Model, error) {
		ids, labels, loss, _ := embForward(rb.Graph, rb.Variable, params, embBatch)
		return &train.Model{Loss: loss, Inputs: map[string]tf.Output{"ids": ids, "labels": labels}}, rb.Err()
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.r = r
	if err := c.buildEval(params, spec, resolver); err != nil {
		c.close()
		return nil, err
	}
	if _, err := r.Init(); err != nil {
		c.close()
		return nil, err
	}
	start := time.Now()
	if _, err := c.round(func(wi int) map[string]*tf.Tensor { return first[wi].feeds() }, nil); err != nil {
		c.close()
		return nil, err
	}
	c.firstStep = time.Since(start)
	return c, nil
}

func (b embBatchData) feeds() map[string]*tf.Tensor {
	return map[string]*tf.Tensor{"ids": b.ids, "labels": b.labels}
}

// round runs one synchronous round: every worker steps once. It returns
// each worker's TrainStep time in ms.
func (c *psCluster) round(feeds func(wi int) map[string]*tf.Tensor, tr *tracer) ([embWorkers]float64, error) {
	var lat [embWorkers]float64
	errs := make([]error, embWorkers)
	var wg sync.WaitGroup
	for wi := 0; wi < embWorkers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			task := distributed.TaskName("worker", wi)
			start := time.Now()
			tr.timed(span{Name: "TrainStep", Layer: "train", Lane: task, Key: "train/" + task}, func() {
				_, errs[wi] = c.r.TrainStep(wi, feeds(wi))
			})
			lat[wi] = ms(time.Since(start))
		}(wi)
	}
	wg.Wait()
	return lat, errors.Join(errs...)
}

// buildEval builds a forward-only graph whose variables alias the trained
// ones: same names, same creation order, same round-robin PS placement as
// ReplicaGraph.Variable.
func (c *psCluster) buildEval(params embParams, spec distributed.ClusterSpec, resolver distributed.Resolver) error {
	g := tf.NewGraph()
	wg := g.WithDevice(distributed.TaskName("worker", 0))
	next := 0
	newVar := func(name string, init *tf.Tensor) *tf.Variable {
		dev := distributed.TaskName("ps", next%embPS)
		next++
		return g.WithDevice(dev).NewVariableFromTensor(name, init)
	}
	ids, labels, loss, _ := embForward(wg, newVar, params, embHeldOut)
	if err := g.Err(); err != nil {
		return err
	}
	m, err := distributed.NewMaster(g.Raw(), spec, resolver, distributed.MasterOptions{})
	if err != nil {
		return err
	}
	c.eval, c.evalIDs, c.evalLab, c.evalEP = m, ids.Unwrap(), labels.Unwrap(), loss.Unwrap()
	return nil
}

func (c *psCluster) heldOutLoss(b embBatchData) (float64, error) {
	out, err := c.eval.Run(map[graph.Endpoint]*tf.Tensor{c.evalIDs: b.ids, c.evalLab: b.labels},
		[]graph.Endpoint{c.evalEP}, nil)
	if err != nil {
		return 0, err
	}
	return out[0].FloatAt(0), nil
}

// psLoop drives both workers in closed loops, one TrainStep caller each.
type psLoop struct {
	c      *psCluster
	pools  [][]embBatchData
	rounds int64 // completed rounds so far
	tr     *tracer
	out    *outcome
}

// run steps both workers, one synchronous round at a time, until
// stop(completed, elapsed) says so. The stop is decided once per round, so
// no worker is left waiting at the barrier for a round its peer skips.
func (l *psLoop) run(stop func(completed int64, elapsed time.Duration) bool) ([]float64, time.Duration, error) {
	start := time.Now()
	var lats []float64
	for !stop(l.rounds, time.Since(start)) {
		done := l.rounds
		lat, err := l.c.round(func(wi int) map[string]*tf.Tensor {
			return l.pools[wi][done%int64(len(l.pools[wi]))].feeds()
		}, l.tr)
		l.out.attempted += embWorkers
		if err != nil {
			l.out.failed++
			return nil, time.Since(start), err
		}
		lats = append(lats, lat[:]...)
		l.rounds++
	}
	return lats, time.Since(start), nil
}

// trainFixed trains from the set-up round to embFixedRounds rounds and
// checks the held-out loss before and after.
func (l *psLoop) trainFixed(cfg config, heldOut embBatchData) ([]float64, time.Duration, error) {
	initial, err := l.c.heldOutLoss(heldOut)
	if err != nil {
		return nil, 0, err
	}
	lat, elapsed, err := l.run(func(done int64, _ time.Duration) bool { return done >= embFixedRounds })
	if err != nil {
		return nil, elapsed, err
	}
	final, err := l.c.heldOutLoss(heldOut)
	if err != nil {
		return nil, elapsed, err
	}
	l.out.figure("loss_initial", initial, "nats", embHeldOut)
	l.out.figure("loss_final", final, "nats", embHeldOut)
	checkLoss(l.out, cfg, initial, final)
	return lat, elapsed, nil
}

func runPSEmbed(cfg config) (*outcome, error) {
	out := newOutcome()
	params, pools, heldOut := embData(cfg.seed)
	first := [embWorkers]embBatchData{pools[0][0], pools[1][0]}

	if cfg.trace {
		return out, tracePSEmbed(cfg, out, params, pools, heldOut, first)
	}

	c, st, err := setUp(func() (*psCluster, error) { return startPSCluster(params, first, nil) },
		(*psCluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()

	loop := &psLoop{c: c, pools: pools, rounds: 1, out: out}
	heap := startHeapSampler(10 * time.Millisecond)
	cpu0 := cpuSeconds()
	lat, elapsed, err := loop.trainFixed(cfg, heldOut)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	rest := cfg.budget(1) - elapsed
	more, elapsed2, err := loop.run(func(_ int64, e time.Duration) bool { return e >= rest })
	memPeak := heap.Stop()
	cpuUsed := cpuSeconds() - cpu0
	if err != nil {
		return nil, err
	}
	lat = append(lat, more...)
	elapsed += elapsed2

	out.setup(st)
	reportTraining(out, lat, elapsed, embBatch, memPeak, cpuUsed)
	out.figure("rounds", float64(loop.rounds), "count", int(loop.rounds))
	return out, nil
}

// tracePSEmbed trains a plain cluster for the fixed round count and checks
// its loss, times a plain segment on it, then a traced segment on a cluster
// whose every resolver is the counting decorator, then the layer probes.
func tracePSEmbed(cfg config, out *outcome, params embParams, pools [][]embBatchData, heldOut embBatchData,
	first [embWorkers]embBatchData) error {
	seg := cfg.budget(0.3)
	plainC, err := startPSCluster(params, first, nil)
	if err != nil {
		return err
	}
	plain := &psLoop{c: plainC, pools: pools, rounds: 1, out: out}
	if _, _, err := plain.trainFixed(cfg, heldOut); err != nil {
		plainC.close()
		return err
	}
	plainStart := plain.rounds
	before := readRuntimeCounters()
	_, plainDur, err := plain.run(func(_ int64, e time.Duration) bool { return e >= seg })
	after := readRuntimeCounters()
	plainC.close()
	if err != nil {
		return err
	}
	plainRounds := plain.rounds - plainStart
	goMetrics(before, after, plainRounds*embWorkers, out.layer)

	tr := newTracer()
	rec := newRPCRecorder(tr)
	c, err := startPSCluster(params, first, rec)
	if err != nil {
		return err
	}
	defer c.close()
	out.layer["session.compile.ms"] = ms(c.firstStep)
	out.figure("session.compile.ms", ms(c.firstStep), "ms (first round: registration and first step)", 1)
	loop := &psLoop{c: c, pools: pools, rounds: 1, out: out, tr: tr}
	// Warm up, then count only steady-state traffic.
	if _, _, err := loop.run(func(done int64, _ time.Duration) bool { return done >= 3 }); err != nil {
		return err
	}
	rec.reset()
	tr.reset()
	startRounds := loop.rounds
	_, tracedDur, err := loop.run(func(_ int64, e time.Duration) bool { return e >= seg })
	if err != nil {
		return err
	}
	rounds := loop.rounds - startRounds
	plainRate := float64(plainRounds) / plainDur.Seconds()
	tracedRate := float64(rounds) / tracedDur.Seconds()
	out.layer["trace.overhead_frac"] = 1 - tracedRate/plainRate
	out.figure("rounds_plain", float64(plainRounds), "count", int(plainRounds))
	out.figure("rounds_traced", float64(rounds), "count", int(rounds))

	stats, pushes := rec.snapshot()
	rpcMetrics(stats, rounds, out.layer)
	for _, m := range rpcMethods {
		out.figure("rpc."+m+".calls", float64(stats[m].calls), "count (bytes computed from tensor sizes)", len(stats[m].lat))
	}
	psMetrics(pushes, out)

	spans := tr.snapshot()
	linkPSSpans(spans)
	linkParents(spans)
	var compute []float64
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 && s.Name == "PushGradients" {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		if s.Name == "TrainStep" {
			compute = append(compute, us(s.End-s.Start-covered(spans, children[i], s.Start, s.End)))
		}
	}
	cd := summarize(compute)
	out.layer["train.step_compute_us_p50"] = cd.P50
	out.figure("train.step_compute_us_p50", cd.P50, "us", cd.N)

	grad, passes, err := embGraphTimes(params)
	if err != nil {
		return err
	}
	out.layer["autodiff.gradients.ms"] = grad
	out.figure("autodiff.gradients.ms", grad, "ms (Gradients of the replica loss)", setupReps)
	out.layer["graph.passes.ms"] = passes
	out.figure("graph.passes.ms", passes, "ms", setupReps)

	if err := runProbes(out, cfg.workload); err != nil {
		return err
	}
	return writeTrace(cfg, out, tr, spans)
}

// linkPSSpans names each RPC span's parent step: RunGraph and AbortStep
// calls of a step belong to the worker whose task ran the step's compute
// partition, and a push belongs to its origin worker.
func linkPSSpans(spans []span) {
	owner := map[string]string{}
	for _, s := range spans {
		if s.Name == "RunGraph" && strings.Contains(s.Lane, "/job:worker/") {
			owner[s.ID] = s.Lane[strings.Index(s.Lane, "→")+len("→"):]
		}
	}
	for i, s := range spans {
		switch {
		case s.Name == "PushGradients":
			if f := strings.Fields(s.ID); len(f) == 4 {
				spans[i].ParentKey = "train/" + f[1]
			}
		case (s.Name == "RunGraph" || s.Name == "AbortStep") && strings.HasPrefix(s.Lane, "client"):
			if o, ok := owner[s.ID]; ok {
				spans[i].ParentKey = "train/" + o
			}
		}
	}
}

// psMetrics derives the PS-aggregation metrics from the push records: per
// (shard, round), the time from the first push's start to the last push's
// return, and the gap between the first and last push start.
func psMetrics(pushes []pushRecord, out *outcome) {
	type key struct {
		shard string
		round int64
	}
	type agg struct{ firstStart, lastStart, lastEnd time.Duration }
	rounds := map[key]*agg{}
	applied := 0
	for _, p := range pushes {
		if p.applied {
			applied++
		}
		k := key{p.shard, p.round}
		a := rounds[k]
		if a == nil {
			rounds[k] = &agg{p.start, p.start, p.end}
			continue
		}
		a.firstStart = min(a.firstStart, p.start)
		a.lastStart = max(a.lastStart, p.start)
		a.lastEnd = max(a.lastEnd, p.end)
	}
	var roundUs, waitUs []float64
	for _, a := range rounds {
		roundUs = append(roundUs, us(a.lastEnd-a.firstStart))
		waitUs = append(waitUs, us(a.lastStart-a.firstStart))
	}
	rd, wd := summarize(roundUs), summarize(waitUs)
	out.layer["ps.round_us_p50"] = rd.P50
	out.layer["ps.barrier_wait_us_p50"] = wd.P50
	if len(pushes) > 0 {
		out.layer["ps.push_applied_frac"] = float64(applied) / float64(len(pushes))
	}
	out.figure("ps.round_us_p50", rd.P50, "us", rd.N)
	out.figure("ps.barrier_wait_us_p50", wd.P50, "us", wd.N)
	out.figure("ps.push_applied_frac", out.layer["ps.push_applied_frac"], "ratio", len(pushes))
}

// embGraphTimes times gradient construction and the optimization pipeline
// on a single-process copy of the replica graph (medians, in ms).
func embGraphTimes(params embParams) (gradMs, passes float64, err error) {
	build := func() (*tf.Graph, time.Duration, error) {
		g := tf.NewGraph()
		_, _, loss, vars := embForward(g, g.NewVariableFromTensor, params, embBatch)
		xs := make([]tf.Output, len(vars))
		for i, v := range vars {
			xs[i] = v.Value()
		}
		start := time.Now()
		_, err := g.Gradients([]tf.Output{loss}, xs)
		d := time.Since(start)
		if err == nil {
			err = g.Err()
		}
		return g, d, err
	}
	var grads []float64
	for i := 0; i < setupReps; i++ {
		_, d, err := build()
		if err != nil {
			return 0, 0, err
		}
		grads = append(grads, ms(d))
	}
	passes, err = passesMs(func() (*tf.Graph, error) {
		g, _, err := build()
		return g, err
	})
	return median(grads), passes, err
}
