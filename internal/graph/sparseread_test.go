package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/placement"
	"repro/internal/tensor"
)

const (
	psDev     = "/job:ps/task:0"
	workerDev = "/job:worker/task:0"
)

// embeddingRead is a [10,4] Variable on the PS task, its Read, int32 ids on
// the worker and Gather(Read(v), ids) on the worker — the graph the
// construction layer emits for an embedding lookup.
type embeddingRead struct {
	v, read, ids, gather *graph.Node
}

// newEmbeddingRead builds the Variable, Read and ids; lookup adds the
// Gather.
func newEmbeddingRead(t *testing.T, g *graph.Graph) *embeddingRead {
	t.Helper()
	e := &embeddingRead{}
	e.v = mustAdd(t, g, "Variable", nil, graph.NodeArgs{
		Name: "emb", Device: psDev,
		Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{10, 4}},
	})
	e.read = mustAdd(t, g, "Read", []graph.Endpoint{e.v.Out(0)}, graph.NodeArgs{Name: "emb/read"})
	e.ids = mustAdd(t, g, "Placeholder", nil, graph.NodeArgs{
		Name: "ids", Device: workerDev,
		Attrs: map[string]any{"dtype": tensor.Int32, "shape": tensor.Shape{3}},
	})
	return e
}

// lookup adds Gather(Read(v), ids) on the worker.
func (e *embeddingRead) lookup(t *testing.T, g *graph.Graph, ids *graph.Node, args graph.NodeArgs) *embeddingRead {
	t.Helper()
	args.Name, args.Device = "lookup", workerDev
	e.gather = mustAdd(t, g, "Gather", []graph.Endpoint{e.read.Out(0), ids.Out(0)}, args)
	return e
}

func failingEval(n *graph.Node, _ []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return nil, fmt.Errorf("no folding in this test")
}

func TestSparseReadsGatherFromVariable(t *testing.T) {
	g := graph.New()
	e := newEmbeddingRead(t, g)
	e.lookup(t, g, e.ids, graph.NodeArgs{})
	rows := mustAdd(t, g, "Neg", []graph.Endpoint{e.gather.Out(0)}, graph.NodeArgs{Device: workerDev})
	dense := mustAdd(t, g, "Neg", []graph.Endpoint{e.read.Out(0)}, graph.NodeArgs{Device: workerDev})
	after := mustAdd(t, g, "NoOp", nil, graph.NodeArgs{Control: []*graph.Node{e.gather}})
	// A writer the Gather precedes (the sparse update of a training step)
	// does not block the rewrite.
	mustAdd(t, g, "ScatterSub", []graph.Endpoint{e.v.Out(0), e.ids.Out(0), rows.Out(0)}, graph.NodeArgs{})

	res, err := graph.NewPipeline(failingEval, graph.PipelineOptions{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparse != 1 {
		t.Fatalf("Sparse = %d, want 1", res.Sparse)
	}
	fetch := graph.Remap(res.Replaced, e.gather.Out(0))
	at := fetch.Node
	if at == e.gather || at.Op() != "Gather" {
		t.Fatalf("fetch of %s remapped to %s (%s), want a new Gather", e.gather.Name(), at.Name(), at.Op())
	}
	if at.Input(0) != e.v.Out(0) || at.Input(1) != e.ids.Out(0) {
		t.Errorf("rewritten Gather reads %v, want [%v %v]", at.Inputs(), e.v.Out(0), e.ids.Out(0))
	}
	if at.Device() != "" {
		t.Errorf("rewritten Gather device = %q, want none (the variable decides)", at.Device())
	}
	if !at.Out(0).Shape().Equal(tensor.Shape{3, 4}) {
		t.Errorf("rewritten Gather shape = %v, want [3 4]", at.Out(0).Shape())
	}
	if rows.Input(0) != fetch {
		t.Error("consumer of the old Gather not rewired")
	}
	if dense.Input(0) != e.read.Out(0) {
		t.Error("another consumer of the Read lost it")
	}
	if cs := after.ControlInputs(); len(cs) != 1 || cs[0] != at {
		t.Errorf("control edge from the old Gather not rehomed: %v", cs)
	}
	if !e.gather.Dead() {
		t.Error("superseded Gather not marked dead")
	}

	// Fetching the rows needs no Read, and the Gather lands on the PS.
	set, err := graph.Prune(g, nil, []graph.Endpoint{rows.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Contains(e.read) {
		t.Error("pruned rows fetch still runs the full-table Read")
	}
	var devs []device.Spec
	for _, name := range []string{workerDev + "/device:CPU:0", psDev + "/device:CPU:0"} {
		d, err := device.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	asg, err := placement.Place(g, set, devs, devs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := asg[at.ID()]; got != devs[1] {
		t.Errorf("rewritten Gather placed on %v, want %v", got, devs[1])
	}
}

// TestSparseReadsSkips: each guard leaves the graph exactly as built.
func TestSparseReadsSkips(t *testing.T) {
	none := graph.NodeArgs{}
	cases := []struct {
		name  string
		build func(t *testing.T, g *graph.Graph, e *embeddingRead)
	}{
		{"read with control input", func(t *testing.T, g *graph.Graph, e *embeddingRead) {
			g.AddControlEdge(mustAdd(t, g, "NoOp", nil, none), e.read)
			e.lookup(t, g, e.ids, none)
		}},
		{"colocation hint", func(t *testing.T, g *graph.Graph, e *embeddingRead) {
			e.lookup(t, g, e.ids, graph.NodeArgs{Attrs: map[string]any{graph.ColocationAttr: []string{"ids"}}})
		}},
		{"control-flow frame", func(t *testing.T, g *graph.Graph, e *embeddingRead) {
			e.lookup(t, g, e.ids, graph.NodeArgs{Attrs: map[string]any{graph.FrameAttr: "loop"}})
		}},
		{"indices after a writer", func(t *testing.T, g *graph.Graph, e *embeddingRead) {
			w := assignAddOnes(t, g, e.v)
			ids := mustAdd(t, g, "Identity", []graph.Endpoint{e.ids.Out(0)}, graph.NodeArgs{Control: []*graph.Node{w}})
			e.lookup(t, g, ids, none)
		}},
		{"control input after a writer", func(t *testing.T, g *graph.Graph, e *embeddingRead) {
			w := assignAddOnes(t, g, e.v)
			gate := mustAdd(t, g, "NoOp", nil, graph.NodeArgs{Control: []*graph.Node{w}})
			e.lookup(t, g, e.ids, graph.NodeArgs{Control: []*graph.Node{gate}})
		}},
		{"writer after the read, unordered with the gather", func(t *testing.T, g *graph.Graph, e *embeddingRead) {
			decay := mustAdd(t, g, "Neg", []graph.Endpoint{e.read.Out(0)}, none)
			mustAdd(t, g, "AssignAdd", []graph.Endpoint{e.v.Out(0), decay.Out(0)}, none)
			e.lookup(t, g, e.ids, none)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New()
			e := newEmbeddingRead(t, g)
			tc.build(t, g, e)
			consumer := mustAdd(t, g, "Neg", []graph.Endpoint{e.gather.Out(0)}, none)
			before := g.NumNodes()
			n, replaced, err := graph.SparseReads(g)
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 || len(replaced) != 0 || g.NumNodes() != before {
				t.Errorf("rewrote %d Gathers (%d nodes → %d), want none", n, before, g.NumNodes())
			}
			if consumer.Input(0) != e.gather.Out(0) || e.gather.Input(0) != e.read.Out(0) {
				t.Error("graph wiring changed")
			}
		})
	}
}

// assignAddOnes adds AssignAdd(v, ones): a writer of v.
func assignAddOnes(t *testing.T, g *graph.Graph, v *graph.Node) *graph.Node {
	t.Helper()
	ones := tensor.Fill(tensor.Float32, tensor.Shape{10, 4}, 1)
	c := mustAdd(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": ones}})
	return mustAdd(t, g, "AssignAdd", []graph.Endpoint{v.Out(0), c.Out(0)}, graph.NodeArgs{})
}
