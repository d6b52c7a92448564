package train

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/queue"
	"repro/tf"
)

// SyncReplicas implements the synchronous coordination of §4.4 (Figure
// 4b/4c) with the queue-based construction the paper describes: a gradient
// queue accumulates per-worker updates so they can be applied atomically,
// and a token queue acts as the barrier that releases workers only after
// the aggregated update is in place, so every worker reads the same
// parameter version.
//
// With NumBackup > 0 the scheme becomes Figure 4c: NumWorkers+NumBackup
// replicas compute gradients but only the first NumWorkers fresh updates
// per step are aggregated; later (stale) updates are discarded by their
// step tag, mirroring "the aggregation takes the first m of n updates
// produced".
type SyncReplicas struct {
	g          *tf.Graph
	NumWorkers int // m: gradients aggregated per step
	NumBackup  int // b: extra proactive replicas (Figure 4c)

	globalStep *tf.Variable
	gradQueue  *tf.Queue
	tokenQueue *tf.Queue

	// Worker side.
	enqueueGrads *tf.Operation
	token        tf.Output // dequeues one token: the step it releases
	localStep    tf.Output // fed with the worker's token, tags its tuple

	// Chief side.
	stepValue  tf.Output
	dequeueOne []tf.Output
	gradFeeds  []tf.Output
	applyOp    *tf.Operation
	bumpStep   *tf.Operation
	tokenFill  *tf.Operation
	stop       *tf.Operation
	gradShapes []tf.Shape
	gradDTypes []tf.DType

	// Sparse gradients bypass the queue: each rides a shared accumulator
	// variable colocated with its parameter (ScatterAdd of just the
	// touched rows, §4.2), which the chief reads, means and zeroes per
	// step. denseSlot maps each variable index to its position in the
	// queue tuple, or −1 for sparse gradients.
	denseSlot []int
	accReads  []tf.Output   // accumulator value per variable (sparse only)
	accReset  *tf.Operation // zeroes every accumulator after the apply
}

// NewSyncReplicas builds the coordination graph. grads are the worker's
// computed gradients for vars; opt applies the aggregated mean. Dense
// gradients travel through the gradient queue; sparse gradients accumulate
// into shared ScatterAdd accumulators without densifying, which requires
// numBackup == 0 (a stale backup contribution cannot be discarded once
// added to a shared accumulator — the queue's step tags cannot help it).
func NewSyncReplicas(g *tf.Graph, opt Optimizer, grads []tf.Gradient, vars []*tf.Variable,
	numWorkers, numBackup int) (*SyncReplicas, error) {
	if numWorkers < 1 {
		return nil, fmt.Errorf("train: SyncReplicas needs at least one worker")
	}
	if len(grads) != len(vars) {
		return nil, fmt.Errorf("train: %d gradients for %d variables", len(grads), len(vars))
	}

	s := &SyncReplicas{g: g, NumWorkers: numWorkers, NumBackup: numBackup}
	s.globalStep = g.NewVariableFromTensor("sync/global_step", tf.ScalarInt(0))
	s.stepValue = s.globalStep.Value()

	dense := make([]tf.Output, 0, len(grads))
	s.denseSlot = make([]int, len(grads))
	s.accReads = make([]tf.Output, len(grads))
	var scatters, accZeros []*tf.Operation
	s.gradDTypes = make([]tf.DType, 0, len(grads)+1)
	s.gradShapes = make([]tf.Shape, 0, len(grads)+1)
	// Component 0 carries the worker's view of the global step so the
	// chief can discard stale backup-worker updates.
	s.gradDTypes = append(s.gradDTypes, tf.Int32)
	s.gradShapes = append(s.gradShapes, tf.Shape{})
	for i, gr := range grads {
		if sp := gr.Sparse; sp != nil && !gr.IsZero() {
			if numBackup > 0 {
				return nil, fmt.Errorf("train: SyncReplicas cannot combine sparse gradients with backup workers; densify the gradient or set numBackup to 0")
			}
			s.denseSlot[i] = -1
			gc := g.ColocateWith(vars[i].Ref().Op())
			acc := gc.NewVariable(fmt.Sprintf("sync/acc_%d", i),
				gc.Const(mustFill(vars[i].DType(), vars[i].Shape(), 0)))
			scatters = append(scatters, acc.ScatterAdd(sp.Indices, sp.Values))
			s.accReads[i] = acc.Value()
			accZeros = append(accZeros,
				acc.Assign(gc.Const(mustFill(vars[i].DType(), vars[i].Shape(), 0))))
			continue
		}
		d, err := g.DensifyGradient(gr)
		if err != nil {
			return nil, err
		}
		s.denseSlot[i] = len(dense)
		dense = append(dense, d)
		s.gradDTypes = append(s.gradDTypes, vars[i].DType())
		s.gradShapes = append(s.gradShapes, vars[i].Shape())
	}

	total := numWorkers + numBackup
	s.gradQueue = g.FIFOQueue("sync/grads", 2*total+2, s.gradDTypes, s.gradShapes)
	s.tokenQueue = g.FIFOQueue("sync/tokens", 2*total+2, []tf.DType{tf.Int32}, []tf.Shape{{}})

	// Worker ops: block on the token queue (the barrier of Fig. 4b), then
	// enqueue gradients tagged with the step the token released. The tag
	// comes from the token, not from a read of the global step racing the
	// parameter reads: the worker reads parameters only after taking the
	// token, so a tuple tagged with the chief's current step was computed
	// on that step's parameters. The tag carries control dependencies on
	// the sparse scatters, so a worker's accumulator contribution is in
	// place before its tuple can be dequeued — by the time the chief holds
	// m fresh tuples, the accumulators hold exactly m contributions.
	s.localStep = g.Placeholder("sync/local_step", tf.Int32, tf.Shape{})
	stepComp := s.localStep
	if len(scatters) > 0 {
		stepComp = g.IdentityWithControl(s.localStep, scatters...)
	}
	if len(accZeros) > 0 {
		s.accReset = g.Group("sync/acc_reset", accZeros...)
	}
	comps := append([]tf.Output{stepComp}, dense...)
	s.enqueueGrads = s.gradQueue.Enqueue(comps...)
	s.token = s.tokenQueue.Dequeue()[0]

	// Chief ops: dequeue one tagged gradient tuple; apply fed means.
	s.dequeueOne = s.gradQueue.Dequeue()
	s.gradFeeds = make([]tf.Output, len(vars))
	applyGrads := make([]tf.Gradient, len(vars))
	for i, v := range vars {
		ph := g.Placeholder(fmt.Sprintf("sync/mean_grad_%d", i), v.DType(), v.Shape())
		s.gradFeeds[i] = ph
		applyGrads[i] = tf.Gradient{Dense: ph}
	}
	applyOp, err := opt.ApplyGradients(g, applyGrads, vars)
	if err != nil {
		return nil, err
	}
	s.applyOp = applyOp
	s.bumpStep = s.globalStep.AssignAdd(g.Const(int32(1)))
	s.tokenFill = s.tokenQueue.Enqueue(s.stepValue)
	s.stop = g.Group("sync/stop", s.gradQueue.Close(), s.tokenQueue.Close())
	return s, g.Err()
}

// ErrReplicasStopped is returned by WorkerStep once Stop has closed the
// queues: the clean end of a worker's loop, tested with errors.Is.
var ErrReplicasStopped = errors.New("train: sync replicas stopped")

// GlobalStep returns the shared step counter variable.
func (s *SyncReplicas) GlobalStep() *tf.Variable { return s.globalStep }

// WorkerStep runs one synchronous worker step: it blocks on the token queue
// (the barrier guaranteeing all workers read the same parameter version,
// Figure 4b), then computes and enqueues this worker's tagged gradients.
// PrimeTokens must release the first round. After Stop it returns
// ErrReplicasStopped.
func (s *SyncReplicas) WorkerStep(sess *tf.Session, feeds map[tf.Output]*tf.Tensor) error {
	token, err := sess.Fetch1(nil, s.token)
	if err == nil {
		tagged := make(map[tf.Output]*tf.Tensor, len(feeds)+1)
		maps.Copy(tagged, feeds)
		tagged[s.localStep] = token
		_, err = sess.Run(tagged, nil, s.enqueueGrads)
	}
	if errors.Is(err, queue.ErrClosed) {
		return ErrReplicasStopped
	}
	return err
}

// Stop closes the gradient and token queues. Workers blocked on either
// wake, and every later WorkerStep ends with ErrReplicasStopped, so
// gradients that backup workers still hold when the chief finishes cannot
// leave them blocked on a full gradient queue.
func (s *SyncReplicas) Stop(sess *tf.Session) error {
	return sess.RunTargets(s.stop)
}

// ChiefStep aggregates the first NumWorkers fresh gradient tuples (stale
// tuples from backup workers of earlier steps are discarded), applies their
// mean, advances the global step, and releases NumWorkers+NumBackup tokens.
func (s *SyncReplicas) ChiefStep(sess *tf.Session) error {
	stepT, err := sess.Fetch1(nil, s.stepValue)
	if err != nil {
		return err
	}
	current := int32(stepT.IntAt(0))

	sums := make([]*tf.Tensor, len(s.gradDTypes)-1)
	fresh := 0
	for fresh < s.NumWorkers {
		tuple, err := sess.Run(nil, s.dequeueOne)
		if err != nil {
			return err
		}
		if int32(tuple[0].IntAt(0)) != current {
			continue // stale update from a backup worker of an earlier step
		}
		for i, t := range tuple[1:] {
			if sums[i] == nil {
				sums[i] = t.Clone()
				continue
			}
			for j := 0; j < t.NumElements(); j++ {
				sums[i].SetFloat(j, sums[i].FloatAt(j)+t.FloatAt(j))
			}
		}
		fresh++
	}
	feeds := make(map[tf.Output]*tf.Tensor, len(s.gradFeeds))
	for i := range s.gradFeeds {
		var t *tf.Tensor
		if slot := s.denseSlot[i]; slot >= 0 {
			t = sums[slot]
		} else {
			// Sparse gradient: the m contributions already sit summed in
			// the shared accumulator (the enqueue's control dependency
			// guarantees each is in place before its tuple was visible).
			at, err := sess.Fetch1(nil, s.accReads[i])
			if err != nil {
				return err
			}
			t = at.Clone()
		}
		for j := 0; j < t.NumElements(); j++ {
			t.SetFloat(j, t.FloatAt(j)/float64(s.NumWorkers))
		}
		feeds[s.gradFeeds[i]] = t
	}
	if _, err := sess.Run(feeds, nil, s.applyOp); err != nil {
		return err
	}
	if s.accReset != nil {
		if err := sess.RunTargets(s.accReset); err != nil {
			return err
		}
	}
	if err := sess.RunTargets(s.bumpStep); err != nil {
		return err
	}
	for i := 0; i < s.NumWorkers+s.NumBackup; i++ {
		if err := sess.RunTargets(s.tokenFill); err != nil {
			return err
		}
	}
	return nil
}

// PrimeTokens releases the first round of tokens so workers can start.
func (s *SyncReplicas) PrimeTokens(sess *tf.Session) error {
	for i := 0; i < s.NumWorkers+s.NumBackup; i++ {
		if err := sess.RunTargets(s.tokenFill); err != nil {
			return err
		}
	}
	return nil
}
