package train

// PS-apply test battery: in sync training, gradients are pushed to the
// owning PS shard and applied there. The contract is equivalence with a
// single session that applies the replicas' mean gradient through the
// optimizer's graph ops — same per-step losses, same parameters and slot
// state — while the traffic shape stays lean: the chief's RunGraph feeds
// carry no gradient tensors (they ride PushGradients), and sparse embedding
// gradients push only the gathered rows.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/tf"
)

// runSyncReplicated drives a 2-job in-process cluster through `rounds`
// synchronous rounds with every worker participating, returning each
// worker's per-round losses and the merged PS variable state.
func runSyncReplicated(t *testing.T, opts ReplicatedOptions, model ModelFn,
	feeds func(wi, s int) map[string]*tf.Tensor, psTasks, workers, rounds int,
) ([][]float64, map[string]*tf.Tensor) {
	t.Helper()
	spec := distributed.ClusterSpec{
		"ps":     make([]string, psTasks),
		"worker": make([]string, workers),
	}
	cluster := distributed.NewInProcCluster(spec)
	opts.Cluster = spec
	opts.Resolver = cluster.Resolver()
	opts.Sync = true
	r, err := NewReplicated(opts, model)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	losses := make([][]float64, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		losses[wi] = make([]float64, rounds)
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				loss, err := r.TrainStep(wi, feeds(wi, s))
				if err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", wi, s, err)
					return
				}
				losses[wi][s] = loss
			}
		}(wi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if step, err := r.GlobalStep(); err != nil || step != int64(rounds) {
		t.Fatalf("global step = %d, %v; want %d", step, err, rounds)
	}
	state := map[string]*tf.Tensor{}
	for i := 0; i < psTasks; i++ {
		task := distributed.TaskName("ps", i)
		for name, v := range cluster.Workers[task].Device().Resources().SnapshotVariables() {
			state[name] = v
		}
	}
	return losses, state
}

// runSingleSession is the reference the PS-apply tests compare against. One
// local session holds the model; each round it computes every worker's loss
// and gradient against the same parameters and feeds their mean to the
// optimizer's ApplyGradients, which is the update one sync round must make.
// Sparse gradients stay sparse (unique rows, mean values), as on the wire.
// It returns per-worker per-round losses and the final values of the model
// variables and their slots.
func runSingleSession(t *testing.T, opt Optimizer, model ModelFn,
	feeds func(wi, s int) map[string]*tf.Tensor, workers, rounds int,
) ([][]float64, map[string]*tf.Tensor) {
	t.Helper()
	g := tf.NewGraph()
	rb := &ReplicaGraph{Graph: g, root: g, psTasks: []string{""}}
	m, err := model(rb)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]tf.Output, len(rb.vars))
	for i, v := range rb.vars {
		xs[i] = v.Value()
	}
	grads, err := g.Gradients([]tf.Output{m.Loss}, xs)
	if err != nil {
		t.Fatal(err)
	}
	fetches := []tf.Output{m.Loss}
	meanGrads := make([]tf.Gradient, len(grads))
	for i, gr := range grads {
		v := rb.vars[i]
		if gr.Sparse != nil {
			fetches = append(fetches, gr.Sparse.Indices, gr.Sparse.Values)
			meanGrads[i] = tf.Gradient{Sparse: &tf.IndexedSlices{
				Indices: g.Placeholder(fmt.Sprintf("mean_indices_%d", i), tf.Int32, tf.Shape{-1}),
				Values:  g.Placeholder(fmt.Sprintf("mean_values_%d", i), v.DType(), append(tf.Shape{-1}, v.Shape()[1:]...)),
				NumRows: gr.Sparse.NumRows,
			}}
			continue
		}
		fetches = append(fetches, gr.Dense)
		meanGrads[i] = tf.Gradient{Dense: g.Placeholder(fmt.Sprintf("mean_grad_%d", i), v.DType(), v.Shape())}
	}
	applyOp, err := opt.ApplyGradients(g, meanGrads, rb.vars)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range rb.vars {
		names = append(names, v.Name())
		for _, slot := range opt.(UpdateRuler).UpdateRule().Slots() {
			names = append(names, v.Name()+"/"+slot)
		}
	}
	reads := make([]tf.Output, len(names))
	for i, name := range names {
		reads[i] = g.BuildOp("Read", name+"/final", nil, g.WrapOutput(g.Raw().ByName(name).Out(0))).Output(0)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}

	losses := make([][]float64, workers)
	for wi := range losses {
		losses[wi] = make([]float64, rounds)
	}
	for s := 0; s < rounds; s++ {
		// Per variable: summed dense gradient, or summed rows by index.
		dense := make([][]float64, len(grads))
		rows := make([]map[int][]float64, len(grads))
		for wi := 0; wi < workers; wi++ {
			f := map[tf.Output]*tf.Tensor{}
			for name, val := range feeds(wi, s) {
				f[m.Inputs[name]] = val
			}
			out, err := sess.Run(f, fetches)
			if err != nil {
				t.Fatal(err)
			}
			losses[wi][s] = out[0].FloatAt(0)
			pos := 1
			for i, gr := range grads {
				if gr.Sparse != nil {
					idx, vals := out[pos], out[pos+1]
					pos += 2
					if rows[i] == nil {
						rows[i] = map[int][]float64{}
					}
					width := vals.NumElements() / max(idx.NumElements(), 1)
					for k := 0; k < idx.NumElements(); k++ {
						sum := rows[i][idx.IntAt(k)]
						if sum == nil {
							sum = make([]float64, width)
							rows[i][idx.IntAt(k)] = sum
						}
						for j := range sum {
							sum[j] += vals.FloatAt(k*width + j)
						}
					}
					continue
				}
				d := out[pos]
				pos++
				if dense[i] == nil {
					dense[i] = make([]float64, d.NumElements())
				}
				for j := range dense[i] {
					dense[i][j] += d.FloatAt(j)
				}
			}
		}
		f := map[tf.Output]*tf.Tensor{}
		for i, gr := range meanGrads {
			v := rb.vars[i]
			if gr.Sparse == nil {
				mean := tf.NewTensor(v.DType(), v.Shape())
				for j, sum := range dense[i] {
					mean.SetFloat(j, sum/float64(workers))
				}
				f[gr.Dense] = mean
				continue
			}
			ids := make([]int, 0, len(rows[i]))
			for id := range rows[i] {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			width := v.Shape()[1:].NumElements()
			idx := tf.NewTensor(tf.Int32, tf.Shape{len(ids)})
			vals := tf.NewTensor(v.DType(), append(tf.Shape{len(ids)}, v.Shape()[1:]...))
			for k, id := range ids {
				idx.SetFloat(k, float64(id))
				for j, sum := range rows[i][id] {
					vals.SetFloat(k*width+j, sum/float64(workers))
				}
			}
			f[gr.Sparse.Indices], f[gr.Sparse.Values] = idx, vals
		}
		if _, err := sess.Run(f, nil, applyOp); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sess.Run(nil, reads)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]*tf.Tensor{}
	for i, name := range names {
		state[name] = out[i]
	}
	return losses, state
}

// checkSyncParity runs model through PS-apply sync training and through the
// single-session reference, and requires the same losses, parameters and
// slot state within tolerance.
func checkSyncParity(t *testing.T, opt func() Optimizer, model ModelFn,
	feeds func(wi, s int) map[string]*tf.Tensor, rounds int, tolerance float64,
) {
	t.Helper()
	wantLosses, wantState := runSingleSession(t, opt(), model, feeds, 2, rounds)
	psLosses, psState := runSyncReplicated(t, ReplicatedOptions{Optimizer: opt()}, model, feeds, 2, 2, rounds)
	for wi := range wantLosses {
		for s := range wantLosses[wi] {
			want, got := wantLosses[wi][s], psLosses[wi][s]
			if diff := math.Abs(got - want); !(diff <= tolerance*math.Max(1, math.Abs(want))) {
				t.Errorf("worker %d round %d: ps-apply loss %.9f, single session %.9f", wi, s, got, want)
			}
		}
	}
	for name, want := range wantState {
		got := psState[name]
		if got == nil {
			t.Errorf("ps-apply has no variable %q", name)
			continue
		}
		for i := 0; i < want.NumElements(); i++ {
			if diff := math.Abs(got.FloatAt(i) - want.FloatAt(i)); !(diff <= tolerance) {
				t.Errorf("%s[%d]: ps-apply %.9f, single session %.9f", name, i, got.FloatAt(i), want.FloatAt(i))
			}
		}
	}
}

// allOptimizers lists every built-in optimizer with hyperparameters that
// train the test models stably.
var allOptimizers = []struct {
	name string
	opt  func() Optimizer
}{
	{"sgd", func() Optimizer { return &GradientDescent{LearningRate: 0.1} }},
	{"momentum", func() Optimizer { return &Momentum{LearningRate: 0.02, Decay: 0.9} }},
	{"adagrad", func() Optimizer { return &Adagrad{LearningRate: 0.5} }},
	{"rmsprop", func() Optimizer { return &RMSProp{LearningRate: 0.01, Decay: 0.9} }},
	{"adadelta", func() Optimizer { return &Adadelta{LearningRate: 1, Rho: 0.95} }},
	{"adam", func() Optimizer { return &Adam{LearningRate: 0.05} }},
}

// ruleless hides the wrapped optimizer's update rule: a custom optimizer
// written as graph code only.
type ruleless struct{ Optimizer }

// TestPSApplyModeSelection pins which optimizers sync training accepts:
// every built-in one (each has an update rule the shards can run), but not
// an optimizer without a rule, which fails at construction. Async training
// applies through the graph and takes any optimizer.
func TestPSApplyModeSelection(t *testing.T) {
	build := func(opts ReplicatedOptions) error {
		t.Helper()
		spec := distributed.ClusterSpec{"ps": make([]string, 1), "worker": make([]string, 1)}
		cluster := distributed.NewInProcCluster(spec)
		opts.Cluster = spec
		opts.Resolver = cluster.Resolver()
		r, err := NewReplicated(opts, repModel)
		if err == nil {
			r.Close()
		}
		return err
	}
	for _, tc := range allOptimizers {
		if err := build(ReplicatedOptions{Sync: true, Optimizer: tc.opt()}); err != nil {
			t.Errorf("sync %s: %v", tc.name, err)
		}
	}
	custom := ruleless{&GradientDescent{LearningRate: 0.1}}
	if err := build(ReplicatedOptions{Sync: true, Optimizer: custom}); err == nil || !strings.Contains(err.Error(), "UpdateRuler") {
		t.Errorf("sync training with a rule-less optimizer: err = %v, want a constructor error naming UpdateRuler", err)
	}
	if err := build(ReplicatedOptions{Optimizer: custom}); err != nil {
		t.Errorf("async training with a rule-less optimizer: %v", err)
	}
}

// TestPSApplySyncMatchesChiefApply: for every optimizer, applying on the PS
// shards reproduces the single-session reference, where the replicas' mean
// gradient goes through the optimizer's graph ops. Both run the same update
// kernels, so the trajectories agree step for step.
func TestPSApplySyncMatchesChiefApply(t *testing.T) {
	feeds := func(wi, s int) map[string]*tf.Tensor { return repFeeds(int64(wi*1000 + s)) }
	for _, tc := range allOptimizers {
		t.Run(tc.name, func(t *testing.T) {
			checkSyncParity(t, tc.opt, repModel, feeds, 12, 1e-6)
		})
	}
}

const (
	embVocab = 8
	embDim   = 4
	embBatch = 3
)

func embInitial() *tf.Tensor {
	init := tf.NewTensor(tf.Float32, tf.Shape{embVocab, embDim})
	for i := 0; i < init.NumElements(); i++ {
		init.SetFloat(i, float64(i%7)*0.25-0.5)
	}
	return init
}

// embModel gathers a few embedding rows, so the table's gradient is sparse
// (indices, values) — the shape of traffic §4.2 optimizes.
func embModel(rb *ReplicaGraph) (*Model, error) {
	idx := rb.Placeholder("idx", tf.Int32, tf.Shape{embBatch})
	emb := rb.Variable("emb", embInitial())
	rows := rb.Gather(emb.Value(), idx)
	loss := rb.Mean(rb.Square(rows), nil, false)
	return &Model{Loss: loss, Inputs: map[string]tf.Output{"idx": idx}}, nil
}

func embFeeds(wi, s int) map[string]*tf.Tensor {
	v := []int32{
		int32((wi + s) % embVocab),
		int32((wi*3 + s*2 + 1) % embVocab),
		int32((s*5 + 2) % embVocab),
	}
	return map[string]*tf.Tensor{"idx": tf.FromInt32s(tf.Shape{embBatch}, v)}
}

// TestPSApplySyncMatchesChiefApplySparse: sparse pushes (row indices and
// values, never densified on the wire) land on the same parameters and slot
// state as the single-session reference. SGD, Momentum and Adagrad update
// only the pushed rows on both sides; the other rules apply to the
// densified gradient on both sides.
func TestPSApplySyncMatchesChiefApplySparse(t *testing.T) {
	for _, tc := range allOptimizers {
		t.Run(tc.name, func(t *testing.T) {
			checkSyncParity(t, tc.opt, embModel, embFeeds, 10, 1e-6)
		})
	}
}

// trafficCounter tallies gradient-shaped tensors crossing the master's
// transports, distinguishing RunGraph feeds from PushGradients payloads.
type trafficCounter struct {
	mu sync.Mutex
	// markFeeds counts RunGraph feed tensors with exactly markElems
	// elements — sized to match only the big variable's gradient.
	markElems int
	markFeeds int
	// Per-variable push payload sizes.
	pushDense  map[string]int // total dense elements pushed
	pushValues map[string]int // total sparse value elements pushed
	pushCalls  int
	// recvs counts RecvTensor payloads by element count, over every
	// task's peer transports.
	recvs map[int]int
}

func newTrafficCounter(markElems int) *trafficCounter {
	return &trafficCounter{markElems: markElems, pushDense: map[string]int{}, pushValues: map[string]int{}, recvs: map[int]int{}}
}

// countedCluster is an in-process cluster whose every task, and the
// client, reaches its peers through the counter: worker↔PS RecvTensor
// traffic is counted along with the client's RPCs.
func countedCluster(spec distributed.ClusterSpec, c *trafficCounter) (distributed.Resolver, map[string]*distributed.Worker) {
	workers := map[string]*distributed.Worker{}
	resolver := c.resolver(func(task string) (distributed.Transport, error) {
		w, ok := workers[task]
		if !ok {
			return nil, fmt.Errorf("unknown task %s", task)
		}
		return &distributed.InProc{W: w}, nil
	})
	for job, addrs := range spec {
		for i := range addrs {
			w := distributed.NewWorker(job, i, resolver)
			workers[w.Task()] = w
		}
	}
	return resolver, workers
}

func (c *trafficCounter) resolver(inner distributed.Resolver) distributed.Resolver {
	return func(task string) (distributed.Transport, error) {
		tr, err := inner(task)
		if err != nil {
			return nil, err
		}
		return &countingTransport{Transport: tr, c: c}, nil
	}
}

type countingTransport struct {
	distributed.Transport
	c *trafficCounter
}

func (t *countingTransport) RunGraph(req *distributed.RunGraphReq) (*distributed.RunGraphResp, error) {
	t.c.mu.Lock()
	for _, f := range req.Feeds {
		if f != nil && f.NumElements() == t.c.markElems {
			t.c.markFeeds++
		}
	}
	t.c.mu.Unlock()
	return t.Transport.RunGraph(req)
}

func (t *countingTransport) RecvTensor(req *distributed.RecvTensorReq, abort <-chan struct{}) (*distributed.RecvTensorResp, error) {
	resp, err := t.Transport.RecvTensor(req, abort)
	if err == nil && resp.Tensor != nil {
		t.c.mu.Lock()
		t.c.recvs[resp.Tensor.NumElements()]++
		t.c.mu.Unlock()
	}
	return resp, err
}

func (t *countingTransport) PushGradients(req *distributed.PushGradientsReq, abort <-chan struct{}) (*distributed.PushGradientsResp, error) {
	t.c.mu.Lock()
	t.c.pushCalls++
	for _, gp := range req.Grads {
		if gp.Dense != nil {
			t.c.pushDense[gp.Name] += gp.Dense.NumElements()
		}
		if gp.Values != nil {
			t.c.pushValues[gp.Name] += gp.Values.NumElements()
		}
	}
	t.c.mu.Unlock()
	return t.Transport.PushGradients(req, abort)
}

const bigDim = 64

// bigModel makes the weight gradient uniquely identifiable by size: w's
// gradient has exactly bigDim elements, while the input feeds (8×64, 8×1)
// and the bias gradient (1) have other sizes.
func bigModel(rb *ReplicaGraph) (*Model, error) {
	x := rb.Placeholder("x", tf.Float32, tf.Shape{repBatch, bigDim})
	y := rb.Placeholder("y", tf.Float32, tf.Shape{repBatch, 1})
	w := rb.Variable("w", tf.NewTensor(tf.Float32, tf.Shape{bigDim, 1}))
	b := rb.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{1}))
	pred := rb.Add(rb.MatMul(x, w.Value()), b.Value())
	loss := rb.Mean(rb.Square(rb.Sub(pred, y)), nil, false)
	return &Model{Loss: loss, Inputs: map[string]tf.Output{"x": x, "y": y}}, nil
}

func bigFeeds(wi, s int) map[string]*tf.Tensor {
	xs := tf.NewTensor(tf.Float32, tf.Shape{repBatch, bigDim})
	ys := tf.NewTensor(tf.Float32, tf.Shape{repBatch, 1})
	for i := 0; i < xs.NumElements(); i++ {
		xs.SetFloat(i, float64((i+wi*31+s*7)%11)*0.1-0.5)
	}
	for i := 0; i < ys.NumElements(); i++ {
		ys.SetFloat(i, float64((i+wi*13+s*3)%5)*0.2-0.4)
	}
	return map[string]*tf.Tensor{"x": xs, "y": ys}
}

// runCountedSync is runSyncReplicated with every transport, the masters'
// and the tasks', wrapped by a trafficCounter.
func runCountedSync(t *testing.T, opts ReplicatedOptions, model ModelFn,
	feeds func(wi, s int) map[string]*tf.Tensor, markElems, workers, rounds int,
) *trafficCounter {
	t.Helper()
	c := newTrafficCounter(markElems)
	spec := distributed.ClusterSpec{"ps": make([]string, 1), "worker": make([]string, workers)}
	opts.Cluster = spec
	opts.Resolver, _ = countedCluster(spec, c)
	opts.Sync = true
	r, err := NewReplicated(opts, model)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Init(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				if _, err := r.TrainStep(wi, feeds(wi, s)); err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", wi, s, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return c
}

// TestPSApplyChiefTrafficCarriesNoGradients pins the traffic shape of sync
// training: no RunGraph feed is gradient-shaped — gradients reach the shard
// only inside PushGradients, once per worker per round.
func TestPSApplyChiefTrafficCarriesNoGradients(t *testing.T) {
	const (
		workers = 2
		rounds  = 3
	)
	ps := runCountedSync(t, ReplicatedOptions{Optimizer: &GradientDescent{LearningRate: 0.05}},
		bigModel, bigFeeds, bigDim, workers, rounds)
	if ps.markFeeds != 0 {
		t.Errorf("ps-apply fed %d gradient-shaped tensors through RunGraph; gradients must ride PushGradients only",
			ps.markFeeds)
	}
	if want := workers * rounds * bigDim; ps.pushDense["w"] != want {
		t.Errorf("ps-apply pushed %d dense elements for w, want %d (every worker, every round)",
			ps.pushDense["w"], want)
	}
}

// wideVocab makes the embedding table's size unique among the tensors a
// step moves: vocab×dim elements, against batch×dim gathered rows.
const wideVocab = 128

// wideEmbModel is embModel over a wideVocab-row table.
func wideEmbModel(rb *ReplicaGraph) (*Model, error) {
	idx := rb.Placeholder("idx", tf.Int32, tf.Shape{embBatch})
	init := tf.NewTensor(tf.Float32, tf.Shape{wideVocab, embDim})
	for i := 0; i < init.NumElements(); i++ {
		init.SetFloat(i, float64(i%13)*0.1-0.6)
	}
	emb := rb.Variable("emb", init)
	rows := rb.Gather(emb.Value(), idx)
	loss := rb.Mean(rb.Square(rows), nil, false)
	return &Model{Loss: loss, Inputs: map[string]tf.Output{"idx": idx}}, nil
}

func wideEmbFeeds(wi, s int) map[string]*tf.Tensor {
	v := []int32{
		int32((wi*17 + s) % wideVocab),
		int32((wi + s*29 + 3) % wideVocab),
		int32((s*41 + 7) % wideVocab),
	}
	return map[string]*tf.Tensor{"idx": tf.FromInt32s(tf.Shape{embBatch}, v)}
}

// TestSparsePushTrafficScalesWithGatheredRows: an embedding push carries
// the gathered rows' values (batch×dim elements), never a vocab-sized dense
// tensor — per-step traffic scales with the lookups, not the table (§4.2).
func TestSparsePushTrafficScalesWithGatheredRows(t *testing.T) {
	const (
		workers = 2
		rounds  = 4
	)
	c := runCountedSync(t, ReplicatedOptions{Optimizer: &GradientDescent{LearningRate: 0.1}},
		wideEmbModel, wideEmbFeeds, wideVocab*embDim, workers, rounds)
	if c.pushDense["emb"] != 0 {
		t.Errorf("embedding gradient was densified on the wire: %d dense elements pushed", c.pushDense["emb"])
	}
	if want := workers * rounds * embBatch * embDim; c.pushValues["emb"] != want {
		t.Errorf("pushed %d sparse value elements for emb, want %d (= workers×rounds×batch×dim; vocab×dim would be %d per push)",
			c.pushValues["emb"], want, wideVocab*embDim)
	}
	if c.markFeeds != 0 {
		t.Errorf("%d vocab-sized tensors crossed RunGraph feeds; embedding traffic must scale with the gathered rows", c.markFeeds)
	}
}

// TestSparseReadTrafficScalesWithGatheredRows: the embedding Gather runs on
// the PS task that owns the table (§4.2, Figure 3), so the rows a step
// gathers cross RecvTensor and the table never does.
func TestSparseReadTrafficScalesWithGatheredRows(t *testing.T) {
	const (
		workers = 2
		rounds  = 4
	)
	c := runCountedSync(t, ReplicatedOptions{Optimizer: &GradientDescent{LearningRate: 0.1}},
		wideEmbModel, wideEmbFeeds, wideVocab*embDim, workers, rounds)
	if n := c.recvs[wideVocab*embDim]; n != 0 {
		t.Errorf("%d vocab×dim tensors crossed RecvTensor; a worker must receive only the rows it gathers", n)
	}
	if n := c.recvs[embBatch*embDim]; n < workers*rounds {
		t.Errorf("%d batch×dim tensors crossed RecvTensor, want at least %d (the gathered rows, every worker, every round)",
			n, workers*rounds)
	}
}

// TestSparseReadsMatchUnoptimizedMaster: moving the Gather onto the
// variable's task changes where the rows are read, not what is read. A
// worker training the embedding in place (Adagrad's sparse apply on the
// PS) produces bit-identical losses and table with and without the
// optimization pipeline, and only the unoptimized run ships the table.
func TestSparseReadsMatchUnoptimizedMaster(t *testing.T) {
	const steps = 6
	run := func(opts distributed.MasterOptions) ([]float64, *tf.Tensor, *trafficCounter) {
		spec := distributed.ClusterSpec{"ps": {""}, "worker": {""}}
		c := newTrafficCounter(wideVocab * embDim)
		resolver, workers := countedCluster(spec, c)
		g := tf.NewGraph()
		ps := distributed.TaskName("ps", 0)
		rb := &ReplicaGraph{Graph: g.WithDevice(distributed.TaskName("worker", 0)), root: g, psTasks: []string{ps}}
		m, err := wideEmbModel(rb)
		if err != nil {
			t.Fatal(err)
		}
		trainOp, err := (&Adagrad{LearningRate: 0.5, InitialAccum: 0.1}).Minimize(rb.Graph, m.Loss, rb.vars)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		master, err := distributed.NewMaster(g.Raw(), spec, resolver, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := master.Run(nil, nil, []*graph.Node{g.InitOp().Node()}); err != nil {
			t.Fatal(err)
		}
		losses := make([]float64, steps)
		for s := range losses {
			feeds := map[graph.Endpoint]*tf.Tensor{m.Inputs["idx"].Unwrap(): wideEmbFeeds(0, s)["idx"]}
			out, err := master.Run(feeds, []graph.Endpoint{m.Loss.Unwrap()}, []*graph.Node{trainOp.Node()})
			if err != nil {
				t.Fatal(err)
			}
			losses[s] = out[0].FloatAt(0)
		}
		return losses, workers[ps].Device().Resources().SnapshotVariables()["emb"], c
	}
	want, wantEmb, plain := run(distributed.MasterOptions{DisableOptimizations: true})
	got, gotEmb, optimized := run(distributed.MasterOptions{})
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Errorf("step %d loss = %v optimized, %v unoptimized", s, got[s], want[s])
		}
	}
	for i, w := range wantEmb.Float32s() {
		if g := gotEmb.Float32s()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("emb[%d] = %v optimized, %v unoptimized", i, g, w)
		}
	}
	if plain.recvs[wideVocab*embDim] == 0 || optimized.recvs[wideVocab*embDim] != 0 {
		t.Errorf("vocab×dim RecvTensor payloads: %d unoptimized, %d optimized; want some, then none",
			plain.recvs[wideVocab*embDim], optimized.recvs[wideVocab*embDim])
	}
}
