package distributed

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// pushTestWorker stands up a bare PS task holding one initialized variable
// w = [1, 2].
func pushTestWorker(t *testing.T) *Worker {
	t.Helper()
	w := NewWorker("ps", 0, nil)
	v := w.Device().Resources().FindOrCreateVariable("w", tensor.Float32, tensor.Shape{2})
	if err := v.Assign(tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 2})); err != nil {
		t.Fatal(err)
	}
	return w
}

func wValue(t *testing.T, w *Worker) []float32 {
	t.Helper()
	snap := w.Device().Resources().SnapshotVariables()["w"]
	if snap == nil {
		t.Fatal("variable w missing")
	}
	return snap.Float32s()
}

func sgdPush(origin string, round int64, numFresh int, g0, g1 float32) *PushGradientsReq {
	return &PushGradientsReq{
		Origin:   origin,
		Round:    round,
		NumFresh: numFresh,
		Rule:     ops.UpdateRule{Algo: "sgd", LearningRate: 1},
		Grads: []GradientPush{{
			Name:  "w",
			Dense: tensor.FromFloat32s(tensor.Shape{2}, []float32{g0, g1}),
		}},
	}
}

// TestDuplicatePushGradientsAppliedOnce: a retransmitted push of an
// already-applied round is acknowledged immediately without re-applying —
// the (origin, round) tag is the dedup key that makes lost responses and
// duplicate deliveries harmless.
func TestDuplicatePushGradientsAppliedOnce(t *testing.T) {
	w := pushTestWorker(t)
	resp, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 1, 0.5, 0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Round != 0 || !resp.Applied {
		t.Fatalf("first push: round %d applied %v; want round 0 applied", resp.Round, resp.Applied)
	}
	want := []float32{0.5, 1.5} // w − 1·mean
	if got := wValue(t, w); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after push w = %v, want %v", got, want)
	}

	// The retransmit: same origin, same round. Immediate ack, no movement.
	resp2, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 1, 0.5, 0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Round != 0 || resp2.Applied {
		t.Fatalf("duplicate push: round %d applied %v; want stale ack for round 0", resp2.Round, resp2.Applied)
	}
	if got := wValue(t, w); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("duplicate push moved w to %v; idempotence broken", got)
	}

	// A straggler's stale round from another origin gets the same treatment.
	resp3, err := w.PushGradients(sgdPush("/job:worker/task:1", 0, 1, 9, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Applied {
		t.Fatal("stale push from a straggler must not apply")
	}
	if got := wValue(t, w); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("stale push moved w to %v", got)
	}
}

// TestDuplicatePushPendingRoundCountsOriginOnce: a duplicate that lands
// while its round is still collecting contributions must not double-count
// its origin — it joins the waiters and the round still needs the other
// worker before it applies.
func TestDuplicatePushPendingRoundCountsOriginOnce(t *testing.T) {
	w := pushTestWorker(t)
	var wg sync.WaitGroup
	push := func(origin string, g float32) {
		defer wg.Done()
		if _, err := w.PushGradients(sgdPush(origin, 0, 2, g, g), nil); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go push("/job:worker/task:0", 1)
	go push("/job:worker/task:0", 1) // retransmit of the same contribution
	time.Sleep(30 * time.Millisecond)
	// Two deliveries from one origin must not complete a 2-of-n round.
	if got := wValue(t, w); got[0] != 1 || got[1] != 2 {
		t.Fatalf("round applied from a duplicated single origin: w = %v", got)
	}
	wg.Add(1)
	go push("/job:worker/task:1", 3)
	wg.Wait()
	// mean = (1+3)/2 = 2 → w = [−1, 0]. The duplicate contributed nothing.
	if got := wValue(t, w); got[0] != -1 || got[1] != 0 {
		t.Fatalf("after 2-of-n round w = %v, want [-1 0]", got)
	}
}

// TestPushGradientsAbortUnblocksWaiter: a blocked push must honor its abort
// channel (the trainer's quit), returning a non-retryable error instead of
// wedging on a round that will never complete.
func TestPushGradientsAbortUnblocksWaiter(t *testing.T) {
	w := pushTestWorker(t)
	abort := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 2, 1, 1), abort)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(abort)
	select {
	case err := <-errCh:
		if err == nil || IsRetryable(err) || !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("aborted push returned %v; want a non-retryable abort error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted push never returned")
	}
	if got := wValue(t, w); got[0] != 1 || got[1] != 2 {
		t.Fatalf("aborted round moved w to %v", got)
	}
}

// TestPushGradientsShutdownIsRetryable: Reset/AbortAll wake blocked pushes
// with a retryable error, so a worker whose shard restarts re-pushes
// instead of failing the trainer.
func TestPushGradientsShutdownIsRetryable(t *testing.T) {
	w := pushTestWorker(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 2, 1, 1), nil)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.AbortAll()
	select {
	case err := <-errCh:
		if err == nil || !IsRetryable(err) {
			t.Fatalf("push interrupted by shutdown returned %v; want retryable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never unblocked the pending push")
	}
}
