package nn_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/placement"
	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
)

func TestDenseShapesAndForward(t *testing.T) {
	g := tf.NewGraph()
	g.SetSeed(1)
	x := g.Placeholder("x", tf.Float32, tf.Shape{3, 4})
	y, vars := nn.Dense(g, "fc", x, 5, nn.Linear)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if !y.Shape().Equal(tf.Shape{3, 5}) {
		t.Fatalf("dense output shape %v", y.Shape())
	}
	if len(vars) != 2 {
		t.Fatalf("dense should own 2 variables")
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Fetch1(map[tf.Output]*tf.Tensor{x: tf.NewTensor(tf.Float32, tf.Shape{3, 4})}, y)
	if err != nil {
		t.Fatal(err)
	}
	// Zero input × anything + zero bias = zero.
	for _, v := range out.Float32s() {
		if v != 0 {
			t.Fatalf("zero input produced %v", out.Float32s())
		}
	}
}

func TestClassifierLearnsSyntheticImages(t *testing.T) {
	const batch, h, w, c, classes = 16, 6, 6, 1, 4
	g := tf.NewGraph()
	g.SetSeed(7)
	x := g.Placeholder("x", tf.Float32, tf.Shape{batch, h, w, c})
	labels := g.Placeholder("y", tf.Int32, tf.Shape{batch})
	flat := nn.Flatten(g, x)
	logits, vars := nn.Classifier(g, "clf", flat, []int{32}, classes)
	loss := nn.CrossEntropyLoss(g, logits, labels, 0, nil)
	acc := nn.Accuracy(g, logits, labels)
	opt := &train.Momentum{LearningRate: 0.05, Decay: 0.9}
	trainOp, err := opt.Minimize(g, loss, vars)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	var finalAcc float64
	for i := 0; i < 150; i++ {
		xs, ys := nn.SyntheticImages(nil, int64(i%8), batch, h, w, c, classes)
		out, err := sess.Run(map[tf.Output]*tf.Tensor{x: xs, labels: ys}, []tf.Output{acc}, trainOp)
		if err != nil {
			t.Fatal(err)
		}
		finalAcc = out[0].FloatAt(0)
	}
	if finalAcc < 0.7 {
		t.Errorf("classifier accuracy after training = %g, want >= 0.7", finalAcc)
	}
}

func TestConvLayerTrains(t *testing.T) {
	const batch, hw, classes = 8, 8, 3
	g := tf.NewGraph()
	g.SetSeed(3)
	x := g.Placeholder("x", tf.Float32, tf.Shape{batch, hw, hw, 1})
	labels := g.Placeholder("y", tf.Int32, tf.Shape{batch})
	conv, cv := nn.Conv2DLayer(g, "conv1", x, 4, 3, 3, [2]int{1, 1}, "SAME", nn.ReLU)
	pooled := g.MaxPool(conv, [2]int{2, 2}, [2]int{2, 2}, "VALID")
	logits, fv := nn.Dense(g, "head", nn.Flatten(g, pooled), classes, nn.Linear)
	vars := append(cv, fv...)
	loss := nn.CrossEntropyLoss(g, logits, labels, 0, nil)
	opt := &train.GradientDescent{LearningRate: 0.05}
	trainOp, err := opt.Minimize(g, loss, vars)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	xs, ys := nn.SyntheticImages(nil, 42, batch, hw, hw, 1, classes)
	first := -1.0
	last := -1.0
	for i := 0; i < 60; i++ {
		out, err := sess.Run(map[tf.Output]*tf.Tensor{x: xs, labels: ys}, []tf.Output{loss}, trainOp)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = out[0].FloatAt(0)
		}
		last = out[0].FloatAt(0)
	}
	if last >= first {
		t.Errorf("conv net loss did not decrease: %g -> %g", first, last)
	}
}

func TestLSTMStepAndUnroll(t *testing.T) {
	const batch, in, hidden = 2, 3, 4
	g := tf.NewGraph()
	g.SetSeed(5)
	cell := nn.NewLSTMCell(g, "lstm", in, hidden)
	x := g.Placeholder("x", tf.Float32, tf.Shape{batch, in})
	h0, c0 := cell.ZeroState(g, batch)
	h1, c1 := cell.Step(g, x, h0, c0)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if !h1.Shape().Equal(tf.Shape{batch, hidden}) || !c1.Shape().Equal(tf.Shape{batch, hidden}) {
		t.Fatalf("LSTM state shapes %v %v", h1.Shape(), c1.Shape())
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	xv := tf.NewRNG(1).Uniform(tf.Float32, tf.Shape{batch, in}, -1, 1)
	out, err := sess.Run(map[tf.Output]*tf.Tensor{x: xv}, []tf.Output{h1, c1})
	if err != nil {
		t.Fatal(err)
	}
	// Hidden state is bounded by tanh.
	for _, v := range out[0].Float32s() {
		if math.Abs(float64(v)) > 1 {
			t.Fatalf("LSTM hidden out of range: %v", out[0].Float32s())
		}
	}
}

func TestLSTMLearnsSequenceTask(t *testing.T) {
	// Predict the next token of a short repeating sequence through a
	// 2-step unrolled LSTM with embeddings.
	const vocab, dim, hidden, batch, steps = 8, 6, 12, 4, 2
	g := tf.NewGraph()
	g.SetSeed(11)
	emb, err := nn.NewShardedEmbedding(g, "emb", vocab, dim, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cell := nn.NewLSTMCell(g, "lstm", dim, hidden)
	soft, err := nn.NewSoftmaxWeights(g, "soft", vocab, hidden, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := g.Placeholder("in", tf.Int32, tf.Shape{batch, steps})
	targets := g.Placeholder("tgt", tf.Int32, tf.Shape{batch, steps})
	h, c := cell.ZeroState(g, batch)
	var losses []tf.Output
	for s := 0; s < steps; s++ {
		ids := g.Squeeze(g.Slice(inputs, []int{0, s}, []int{batch, 1}), 1)
		tgt := g.Squeeze(g.Slice(targets, []int{0, s}, []int{batch, 1}), 1)
		x := emb.Lookup(g, ids)
		h, c = cell.Step(g, x, h, c)
		losses = append(losses, soft.FullSoftmaxLoss(g, h, tgt))
	}
	loss := g.Mul(g.AddN(losses...), g.Const(float32(1.0/steps)))
	vars := append(append(emb.Vars(), cell.Vars()...), soft.Vars()...)
	opt := &train.Adagrad{LearningRate: 0.5}
	trainOp, err := opt.Minimize(g, loss, vars)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	corpus := []int32{1, 3, 5, 7, 1, 3, 5, 7, 1, 3, 5, 7, 1, 3, 5, 7}
	var first, last float64
	for i := 0; i < 120; i++ {
		in, tgt := nn.LMBatch(corpus, i, batch, steps)
		out, err := sess.Run(map[tf.Output]*tf.Tensor{inputs: in, targets: tgt}, []tf.Output{loss}, trainOp)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out[0].FloatAt(0)
		}
		last = out[0].FloatAt(0)
	}
	if last > first/2 {
		t.Errorf("LSTM loss did not halve: %g -> %g", first, last)
	}
}

func TestShardedEmbeddingMatchesSingleShard(t *testing.T) {
	// Property (Figure 3): a sharded lookup must equal the unsharded one
	// when both hold the same logical matrix.
	const vocab, dim = 10, 3
	g := tf.NewGraph()
	// Build explicit row values: row i = (i, i+0.5, i+0.25).
	full := tf.NewTensor(tf.Float32, tf.Shape{vocab, dim})
	for i := 0; i < vocab; i++ {
		full.Float32s()[i*dim] = float32(i)
		full.Float32s()[i*dim+1] = float32(i) + 0.5
		full.Float32s()[i*dim+2] = float32(i) + 0.25
	}
	single := g.NewVariableFromTensor("single", full)

	sharded, err := nn.NewShardedEmbedding(g, "sharded", vocab, dim, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite shard contents to match: shard s row r = full row r*3+s.
	var assigns []*tf.Operation
	for s, shard := range sharded.Shards {
		rows := shard.Shape()[0]
		data := tf.NewTensor(tf.Float32, tf.Shape{rows, dim})
		for r := 0; r < rows; r++ {
			id := r*3 + s
			copy(data.Float32s()[r*dim:(r+1)*dim], full.Float32s()[id*dim:(id+1)*dim])
		}
		assigns = append(assigns, shard.Assign(g.Const(data)))
	}

	ids := g.Const([]int32{7, 0, 3, 3, 9, 2})
	fromSingle := g.Gather(single.Value(), ids)
	fromSharded := sharded.Lookup(g, ids)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	for _, a := range assigns {
		if err := sess.RunTargets(a); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sess.Run(nil, []tf.Output{fromSingle, fromSharded})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(out[1]) {
		t.Errorf("sharded lookup %v != single %v", out[1], out[0])
	}
}

func TestShardedEmbeddingGradientTraining(t *testing.T) {
	// Training through Part/Gather/Stitch must only move gathered rows.
	const vocab, dim = 9, 2
	g := tf.NewGraph()
	g.SetSeed(2)
	emb, err := nn.NewShardedEmbedding(g, "emb", vocab, dim, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.Const([]int32{4}) // shard 1, row 1
	looked := emb.Lookup(g, ids)
	loss := g.Sum(looked, nil, false)
	opt := &train.GradientDescent{LearningRate: 1}
	trainOp, err := opt.Minimize(g, loss, emb.Vars())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	before := make([]*tf.Tensor, 3)
	for s, shard := range emb.Shards {
		before[s], _ = sess.Fetch1(nil, shard.Value())
	}
	if err := sess.RunTargets(trainOp); err != nil {
		t.Fatal(err)
	}
	for s, shard := range emb.Shards {
		after, err := sess.Fetch1(nil, shard.Value())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < after.NumElements(); i++ {
			delta := after.FloatAt(i) - before[s].FloatAt(i)
			touched := s == 1 && i/dim == 1
			if touched && math.Abs(delta+1) > 1e-5 {
				t.Errorf("shard %d row 1 delta = %g, want -1", s, delta)
			}
			if !touched && delta != 0 {
				t.Errorf("shard %d elem %d moved by %g", s, i, delta)
			}
		}
	}
}

func TestSampledSoftmaxApproximatesFullLoss(t *testing.T) {
	// With numSampled == vocab the sampled estimator sees (almost) every
	// class; more importantly, training with it must reduce the FULL
	// loss.
	const vocab, dim, batch = 30, 8, 8
	g := tf.NewGraph()
	g.SetSeed(13)
	soft, err := nn.NewSoftmaxWeights(g, "soft", vocab, dim, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	hidden := g.Placeholder("h", tf.Float32, tf.Shape{batch, dim})
	labels := g.Placeholder("y", tf.Int32, tf.Shape{batch})
	fullLoss := soft.FullSoftmaxLoss(g, hidden, labels)
	sampledLoss := soft.SampledSoftmaxLoss(g, hidden, labels, 16)
	opt := &train.Adagrad{LearningRate: 0.5}
	trainOp, err := opt.Minimize(g, sampledLoss, soft.Vars())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tf.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunTargets(g.InitOp()); err != nil {
		t.Fatal(err)
	}
	rng := tf.NewRNG(3)
	hv := rng.Uniform(tf.Float32, tf.Shape{batch, dim}, -1, 1)
	yv := tf.FromInt32s(tf.Shape{batch}, []int32{0, 3, 7, 11, 15, 19, 23, 27})
	feeds := map[tf.Output]*tf.Tensor{hidden: hv, labels: yv}
	firstT, err := sess.Fetch1(feeds, fullLoss)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := sess.Run(feeds, nil, trainOp); err != nil {
			t.Fatal(err)
		}
	}
	lastT, err := sess.Fetch1(feeds, fullLoss)
	if err != nil {
		t.Fatal(err)
	}
	if lastT.FloatAt(0) > firstT.FloatAt(0)*0.6 {
		t.Errorf("sampled-softmax training did not reduce full loss: %g -> %g",
			firstT.FloatAt(0), lastT.FloatAt(0))
	}
}

func TestZipfCorpusIsSkewed(t *testing.T) {
	corpus := nn.ZipfCorpus(5, 1000, 20000)
	low, high := 0, 0
	for _, id := range corpus {
		if id < 0 || id >= 1000 {
			t.Fatalf("token %d out of range", id)
		}
		if id < 10 {
			low++
		} else if id >= 500 {
			high++
		}
	}
	if low <= high {
		t.Errorf("Zipf corpus not skewed: low=%d high=%d", low, high)
	}
}

func TestLMBatchWrapsAround(t *testing.T) {
	corpus := []int32{0, 1, 2, 3, 4}
	in, tgt := nn.LMBatch(corpus, 3, 1, 4)
	wantIn := []int32{3, 4, 0, 1}
	wantTgt := []int32{4, 0, 1, 2}
	for i := range wantIn {
		if in.Int32s()[i] != wantIn[i] || tgt.Int32s()[i] != wantTgt[i] {
			t.Fatalf("LMBatch = %v/%v, want %v/%v", in.Int32s(), tgt.Int32s(), wantIn, wantTgt)
		}
	}
}

func TestLinearData(t *testing.T) {
	x, y := nn.LinearData(1, 100, 2, []float32{2, -1}, 0.5, 0)
	for i := 0; i < 100; i++ {
		want := 2*x.Float32s()[i*2] - x.Float32s()[i*2+1] + 0.5
		if math.Abs(float64(y.Float32s()[i]-want)) > 1e-5 {
			t.Fatalf("row %d: y = %g, want %g", i, y.Float32s()[i], want)
		}
	}
}

// TestShardedEmbeddingGathersOnShardTasks: with each shard on its own PS
// task, the optimization pipeline moves every shard's Gather onto the task
// that owns the shard (§4.2, Figure 3), no shard's full Read runs, and the
// lookup returns what the unoptimized graph returns.
func TestShardedEmbeddingGathersOnShardTasks(t *testing.T) {
	const vocab, dim, shards = 11, 3, 2
	type lookup struct {
		g         *tf.Graph
		emb       *nn.ShardedEmbedding
		ids, rows tf.Output
	}
	build := func() lookup {
		g := tf.NewGraph()
		g.SetSeed(3)
		emb, err := nn.NewShardedEmbedding(g, "emb", vocab, dim, shards,
			func(s int) string { return distributed.TaskName("ps", s) })
		if err != nil {
			t.Fatal(err)
		}
		wg := g.WithDevice("/job:worker/task:0")
		ids := wg.Placeholder("ids", tf.Int32, tf.Shape{-1})
		rows := emb.Lookup(wg, ids)
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		return lookup{g, emb, ids, rows}
	}

	spec := distributed.ClusterSpec{"ps": make([]string, shards), "worker": {""}}
	cluster := distributed.NewInProcCluster(spec)
	run := func(l lookup, opts distributed.MasterOptions, init bool) *tf.Tensor {
		m, err := distributed.NewMaster(l.g.Raw(), spec, cluster.Resolver(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if init {
			if _, err := m.Run(nil, nil, []*graph.Node{l.g.InitOp().Node()}); err != nil {
				t.Fatal(err)
			}
		}
		feeds := map[graph.Endpoint]*tf.Tensor{l.ids.Unwrap(): tf.FromInt32s(tf.Shape{6}, []int32{7, 0, 3, 3, 10, 2})}
		out, err := m.Run(feeds, []graph.Endpoint{l.rows.Unwrap()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	// Both graphs read the same shards: their variables share names.
	want := run(build(), distributed.MasterOptions{DisableOptimizations: true}, true)
	if got := run(build(), distributed.MasterOptions{}, false); !got.Equal(want) {
		t.Errorf("optimized lookup %v, unoptimized %v", got, want)
	}

	// Place the rows fetch of an optimized graph as the master does.
	l := build()
	res, err := graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{}).Run(l.g.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparse != shards {
		t.Errorf("pipeline moved %d Gathers, want %d", res.Sparse, shards)
	}
	set, err := graph.Prune(l.g.Raw(), []graph.Endpoint{l.ids.Unwrap()},
		[]graph.Endpoint{graph.Remap(res.Replaced, l.rows.Unwrap())}, nil)
	if err != nil {
		t.Fatal(err)
	}
	devs := spec.Devices()
	asg, err := placement.Place(l.g.Raw(), set, devs, devs[0])
	if err != nil {
		t.Fatal(err)
	}
	placed := map[string]bool{}
	for _, id := range set.SortedIDs() {
		n := l.g.Raw().Node(id)
		for s, shard := range l.emb.Shards {
			if n.Op() == "Read" && n.Input(0).Node == shard.Node() {
				t.Errorf("shard %d's full-table Read runs for a lookup", s)
			}
			if n.Op() != "Gather" || n.Input(0).Node != shard.Node() {
				continue
			}
			want := distributed.TaskName("ps", s)
			if got := asg[id].String(); !strings.HasPrefix(got, want+"/") {
				t.Errorf("shard %d's Gather placed on %s, want %s", s, got, want)
			}
			placed[want] = true
		}
	}
	if len(placed) != shards {
		t.Errorf("Gathers placed on shard tasks %v, want one per shard", placed)
	}
}
