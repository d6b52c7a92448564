package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/tf"
	"repro/tf/nn"
	"repro/tf/train"
)

// local_mlp_train: one tf.Session, one closed-loop caller, an MLP
// 784→256→256→10 with ReLU, softmax cross-entropy and Momentum{0.05, 0.9}
// at batch 64. Labels come from a seeded random linear teacher with 5%
// label noise.
const (
	mlpIn, mlpHidden, mlpClasses = 784, 256, 10
	mlpBatch                     = 64
	mlpTrainBatches              = 128 // training pool, cycled
	mlpHeldOutBatches            = 16
	// mlpFixedSteps is the step count after which loss_final is measured,
	// whatever the run length, so a faster build is not credited with a
	// lower loss.
	mlpFixedSteps = 300
)

// mlpLayers are the dense layers' (in, out) shapes, used by the kernel
// probes and the FLOP count.
var mlpLayers = [][2]int{{mlpIn, mlpHidden}, {mlpHidden, mlpHidden}, {mlpHidden, mlpClasses}}

type mlpBatchData struct{ x, y *tf.Tensor }

// teacherData draws n examples of dimension in with labels from a random
// linear teacher over classes, replacing 5% of the labels with uniform
// noise.
func teacherData(rng *rand.Rand, teacher []float32, n, in, classes int) (*tf.Tensor, *tf.Tensor) {
	xs := make([]float32, n*in)
	ys := make([]int32, n)
	for i := 0; i < n; i++ {
		row := xs[i*in : (i+1)*in]
		for j := range row {
			row[j] = float32(rng.NormFloat64() * 0.25)
		}
		best, bestScore := 0, math.Inf(-1)
		for c := 0; c < classes; c++ {
			var s float64
			for j, v := range row {
				s += float64(v) * float64(teacher[j*classes+c])
			}
			if s > bestScore {
				best, bestScore = c, s
			}
		}
		ys[i] = int32(best)
		if rng.Float64() < 0.05 {
			ys[i] = int32(rng.Intn(classes))
		}
	}
	return tf.FromFloat32s(tf.Shape{n, in}, xs), tf.FromInt32s(tf.Shape{n}, ys)
}

func mlpData(seed int64) (trainPool, heldOut []mlpBatchData) {
	rng := rand.New(rand.NewSource(seed))
	teacher := make([]float32, mlpIn*mlpClasses)
	for i := range teacher {
		teacher[i] = float32(rng.NormFloat64())
	}
	gen := func(n int) []mlpBatchData {
		out := make([]mlpBatchData, n)
		for i := range out {
			x, y := teacherData(rng, teacher, mlpBatch, mlpIn, mlpClasses)
			out[i] = mlpBatchData{x, y}
		}
		return out
	}
	return gen(mlpTrainBatches), gen(mlpHeldOutBatches)
}

// mlpModel is the built training graph.
type mlpModel struct {
	g       *tf.Graph
	x, y    tf.Output
	loss    tf.Output
	trainOp *tf.Operation
	gradDur time.Duration // Minimize construction
}

func buildMLP(seed int64) (*mlpModel, error) {
	g := tf.NewGraph()
	g.SetSeed(seed)
	m := &mlpModel{g: g}
	m.x = g.Placeholder("x", tf.Float32, tf.Shape{mlpBatch, mlpIn})
	m.y = g.Placeholder("y", tf.Int32, tf.Shape{mlpBatch})
	logits, vars := nn.Classifier(g, "mlp", m.x, []int{mlpHidden, mlpHidden}, mlpClasses)
	m.loss = nn.CrossEntropyLoss(g, logits, m.y, 0, nil)
	start := time.Now()
	op, err := (&train.Momentum{LearningRate: 0.05, Decay: 0.9}).Minimize(g, m.loss, vars)
	m.gradDur = time.Since(start)
	if err != nil {
		return nil, err
	}
	m.trainOp = op
	return m, g.Err()
}

// mlpSession is one set-up instance: graph, session, initialized state.
type mlpSession struct {
	*mlpModel
	sess       *tf.Session
	compileDur time.Duration // first training Run
}

// setupMLP builds the graph and gradients, starts a session, initializes
// the variables and runs the first (compiling) step.
func setupMLP(seed int64, first mlpBatchData) (*mlpSession, error) {
	m, err := buildMLP(seed)
	if err != nil {
		return nil, err
	}
	sess, err := tf.NewSession(m.g)
	if err != nil {
		return nil, err
	}
	if err := sess.RunTargets(m.g.InitOp()); err != nil {
		sess.Close()
		return nil, err
	}
	s := &mlpSession{mlpModel: m, sess: sess}
	start := time.Now()
	if _, err := sess.Run(map[tf.Output]*tf.Tensor{m.x: first.x, m.y: first.y}, nil, m.trainOp); err != nil {
		sess.Close()
		return nil, err
	}
	s.compileDur = time.Since(start)
	return s, nil
}

// heldOutLoss is the mean loss over the held-out pool (no update).
func (s *mlpSession) heldOutLoss(pool []mlpBatchData) (float64, error) {
	var sum float64
	for _, b := range pool {
		t, err := s.sess.Fetch1(map[tf.Output]*tf.Tensor{s.x: b.x, s.y: b.y}, s.loss)
		if err != nil {
			return 0, err
		}
		sum += t.FloatAt(0)
	}
	return sum / float64(len(pool)), nil
}

func runLocalMLP(cfg config) (*outcome, error) {
	out := newOutcome()
	trainPool, heldOut := mlpData(cfg.seed)

	var compiles []float64
	s, st, err := setUp(func() (*mlpSession, error) {
		s, err := setupMLP(cfg.seed, trainPool[0])
		if err == nil {
			compiles = append(compiles, ms(s.compileDur))
		}
		return s, err
	}, func(s *mlpSession) { s.sess.Close() })
	if err != nil {
		return nil, err
	}
	defer s.sess.Close()

	step := 1 // the set-up ran step 0
	runStep := func(tr *tracer) (float64, error) {
		b := trainPool[step%len(trainPool)]
		step++
		feeds := map[tf.Output]*tf.Tensor{s.x: b.x, s.y: b.y}
		var err error
		start := time.Now()
		tr.timed(span{Name: "Session.Run", Layer: "session", Lane: "client"}, func() {
			_, err = s.sess.Run(feeds, nil, s.trainOp)
		})
		out.attempted++
		if err != nil {
			out.failed++
		}
		return ms(time.Since(start)), err
	}
	loop := func(tr *tracer, until func(n int, elapsed time.Duration) bool) ([]float64, time.Duration, error) {
		var lat []float64
		start := time.Now()
		for !until(len(lat), time.Since(start)) {
			d, err := runStep(tr)
			if err != nil {
				return lat, time.Since(start), err
			}
			lat = append(lat, d)
		}
		return lat, time.Since(start), nil
	}

	// The set-up step trains on a batch too, so the trained state after
	// mlpFixedSteps is the same in every run with this seed. Traced runs
	// train and check the same way before they time anything.
	initial, err := s.heldOutLoss(heldOut)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler(10 * time.Millisecond)
	cpu0 := cpuSeconds()
	lat, elapsed, err := loop(nil, func(n int, _ time.Duration) bool { return step >= mlpFixedSteps })
	if err != nil {
		heap.Stop()
		return nil, err
	}
	final, err := s.heldOutLoss(heldOut)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	out.figure("loss_initial", initial, "nats", len(heldOut)*mlpBatch)
	out.figure("loss_final", final, "nats", len(heldOut)*mlpBatch)
	checkLoss(out, cfg, initial, final)
	if cfg.trace {
		heap.Stop()
		return out, traceLocalMLP(cfg, out, s, loop, median(compiles))
	}
	rest := cfg.budget(1) - elapsed
	more, elapsed2, err := loop(nil, func(_ int, e time.Duration) bool { return e >= rest })
	memPeak := heap.Stop()
	cpuUsed := cpuSeconds() - cpu0
	if err != nil {
		return nil, err
	}
	lat = append(lat, more...)
	elapsed += elapsed2

	out.setup(st)
	reportTraining(out, lat, elapsed, mlpBatch, memPeak, cpuUsed)
	return out, nil
}

// traceLocalMLP is the traced run of local_mlp_train: a plain segment and
// a traced segment of equal length, then the layer probes.
func traceLocalMLP(cfg config, out *outcome, s *mlpSession,
	loop func(*tracer, func(int, time.Duration) bool) ([]float64, time.Duration, error), compileMs float64) error {
	seg := cfg.budget(0.3)
	before := readRuntimeCounters()
	plain, plainDur, err := loop(nil, func(_ int, e time.Duration) bool { return e >= seg })
	if err != nil {
		return err
	}
	goMetrics(before, readRuntimeCounters(), int64(len(plain)), out.layer)
	tr := newTracer()
	traced, tracedDur, err := loop(tr, func(_ int, e time.Duration) bool { return e >= seg })
	if err != nil {
		return err
	}
	plainRate := float64(len(plain)) / plainDur.Seconds()
	tracedRate := float64(len(traced)) / tracedDur.Seconds()
	out.layer["trace.overhead_frac"] = 1 - tracedRate/plainRate
	out.figure("steps_plain", float64(len(plain)), "count", len(plain))
	out.figure("steps_traced", float64(len(traced)), "count", len(traced))

	out.layer["session.compile.ms"] = compileMs
	out.figure("session.compile.ms", compileMs, "ms", setupReps)
	out.layer["autodiff.gradients.ms"] = s.gradDur.Seconds() * 1e3
	out.figure("autodiff.gradients.ms", out.layer["autodiff.gradients.ms"], "ms", 1)
	passes, err := passesMs(func() (*tf.Graph, error) {
		m, err := buildMLP(cfg.seed)
		if err != nil {
			return nil, err
		}
		return m.g, nil
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

// passesMs times the standard optimization pipeline on freshly built
// copies of a workload graph and returns the median in ms.
func passesMs(build func() (*tf.Graph, error)) (float64, error) {
	res := device.NewCPU("bench", 0, 0).Resources()
	var times []float64
	for i := 0; i < setupReps; i++ {
		g, err := build()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := graph.NewPipeline(exec.Evaluator("CPU", res), graph.PipelineOptions{}).Run(g.Raw()); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}

//go:embed baseline.json
var baselineJSON []byte

// recordedLoss holds loss_final per workload and seed as measured on the
// commit that defined this benchmark (baseline.json).
var recordedLoss = func() map[string]map[int64]float64 {
	var b struct {
		LossFinal map[string]map[int64]float64 `json:"loss_final"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		panic(fmt.Sprintf("perfbench: baseline.json: %v", err))
	}
	return b.LossFinal
}()

// lossTolerance is the relative distance from the recorded loss_final a
// run may show before its output counts as wrong.
const lossTolerance = 0.01

func checkLoss(out *outcome, cfg config, initial, final float64) {
	out.check(!math.IsNaN(final) && !math.IsInf(final, 0), "loss_final %v is not finite", final)
	out.check(final < initial, "loss_final %.6f is not below the initial loss %.6f", final, initial)
	if want, ok := recordedLoss[cfg.workload][cfg.seed]; ok {
		out.check(math.Abs(final-want) <= lossTolerance*math.Abs(want),
			"loss_final %.9g differs from the recorded %.9g by more than %.0f%%", final, want, 100*lossTolerance)
		out.detail["loss_final_bit_exact"] = final == want
	}
}

// mlpFlops counts the floating-point operations of one local_mlp_train
// step from its shapes: forward x·W and backward dW, dx matmuls (2 FLOPs
// per multiply-add; no dx for the input layer), plus the elementwise work
// — bias add and bias gradient, ReLU and its gradient on hidden layers,
// softmax cross-entropy forward and backward (5 per logit), and the
// momentum update (4 per parameter). It returns the total and the matmul
// share of it.
func mlpFlops() (total, matmulShare float64) {
	var mm, ew float64
	for i, l := range mlpLayers {
		macs := float64(mlpBatch * l[0] * l[1])
		mm += 4 * macs // forward and dW
		if i > 0 {
			mm += 2 * macs // dx
		}
		outs := float64(mlpBatch * l[1])
		ew += 2*outs + 4*float64(l[0]*l[1]+l[1])
		if i < len(mlpLayers)-1 {
			ew += 2 * outs
		}
	}
	ew += 5 * float64(mlpBatch*mlpClasses)
	return mm + ew, mm / (mm + ew)
}
