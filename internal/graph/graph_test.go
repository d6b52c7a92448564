package graph_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	_ "repro/internal/ops" // register op definitions
	"repro/internal/tensor"
)

func mustAdd(t *testing.T, g *graph.Graph, op string, ins []graph.Endpoint, args graph.NodeArgs) *graph.Node {
	t.Helper()
	n, err := g.AddNode(op, ins, args)
	if err != nil {
		t.Fatalf("AddNode(%s): %v", op, err)
	}
	return n
}

func constOf(t *testing.T, g *graph.Graph, name string, v float32) *graph.Node {
	t.Helper()
	return mustAdd(t, g, "Const", nil, graph.NodeArgs{
		Name: name, Attrs: map[string]any{"value": tensor.Scalar(v)},
	})
}

func TestRegistryBreadth(t *testing.T) {
	// §5: the runtime contains a substantial standard op library.
	ops := graph.RegisteredOps()
	if len(ops) < 90 {
		t.Errorf("registry has %d ops; expected a broad standard library", len(ops))
	}
	for _, required := range []string{
		"Const", "Variable", "Assign", "MatMul", "Conv2D", "Switch",
		"Merge", "Enter", "Exit", "NextIteration", "Send", "Recv",
		"FIFOQueue", "Save", "Restore", "Gather", "DynamicPartition",
		"DynamicStitch",
	} {
		found := false
		for _, op := range ops {
			if op == required {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("required op %s missing from registry", required)
		}
	}
}

func TestAddNodeValidation(t *testing.T) {
	g := graph.New()
	if _, err := g.AddNode("NoSuchOp", nil, graph.NodeArgs{}); err == nil {
		t.Error("unknown op accepted")
	}
	a := constOf(t, g, "a", 1)
	// Arity check.
	if _, err := g.AddNode("Neg", nil, graph.NodeArgs{}); err == nil {
		t.Error("missing input accepted")
	}
	// Bad output index.
	if _, err := g.AddNode("Neg", []graph.Endpoint{{Node: a, Index: 5}}, graph.NodeArgs{}); err == nil {
		t.Error("out-of-range output index accepted")
	}
	// Cross-graph input.
	g2 := graph.New()
	if _, err := g2.AddNode("Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{}); err == nil {
		t.Error("cross-graph input accepted")
	}
	// Shape inference failure surfaces as an error.
	b := mustAdd(t, g, "Const", nil, graph.NodeArgs{
		Attrs: map[string]any{"value": tensor.FromFloat32s(tensor.Shape{3}, []float32{1, 2, 3})},
	})
	if _, err := g.AddNode("MatMul", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{}); err == nil {
		t.Error("rank-0 matmul accepted")
	}
}

func TestNameUniquification(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "x", 1)
	b := constOf(t, g, "x", 2)
	if a.Name() == b.Name() {
		t.Errorf("duplicate names: %s vs %s", a.Name(), b.Name())
	}
	if g.ByName(a.Name()) != a || g.ByName(b.Name()) != b {
		t.Error("ByName lookup broken")
	}
}

func TestTopoSortOrdersDataAndControl(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "b"})
	c := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "c", Control: []*graph.Node{b}})
	order, err := graph.TopoSort(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name()] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Errorf("order %v violates dependencies", pos)
	}
	_ = c
}

func TestPruneFollowsOnlyNeededPaths(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{Name: "b"})
	unrelated := constOf(t, g, "unrelated", 9)
	deadEnd := mustAdd(t, g, "Neg", []graph.Endpoint{unrelated.Out(0)}, graph.NodeArgs{Name: "deadend"})

	set, err := graph.Prune(g, nil, []graph.Endpoint{b.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Contains(a) || !set.Contains(b) {
		t.Error("needed nodes pruned")
	}
	if set.Contains(unrelated) || set.Contains(deadEnd) {
		t.Error("unneeded nodes kept")
	}
	// Feeding b's input cuts a out of the subgraph.
	set, err = graph.Prune(g, []graph.Endpoint{a.Out(0)}, []graph.Endpoint{b.Out(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Contains(a) {
		t.Error("fed producer should be pruned")
	}
}

func TestCSEMergesOnlyEquivalentNodes(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := constOf(t, g, "b", 2)
	n1 := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	n2 := mustAdd(t, g, "Add", []graph.Endpoint{a.Out(0), b.Out(0)}, graph.NodeArgs{})
	n3 := mustAdd(t, g, "Add", []graph.Endpoint{b.Out(0), a.Out(0)}, graph.NodeArgs{}) // different input order
	consumer := mustAdd(t, g, "AddN", []graph.Endpoint{n1.Out(0), n2.Out(0), n3.Out(0)}, graph.NodeArgs{})

	replaced := graph.CSE(g)
	if len(replaced) != 1 {
		t.Fatalf("CSE replaced %d endpoints, want 1", len(replaced))
	}
	if consumer.Input(1) != n1.Out(0) {
		t.Error("consumer not rewired to the canonical node")
	}
	if consumer.Input(2) != n3.Out(0) {
		t.Error("non-equivalent node was merged")
	}
	// Stateful ops must never merge.
	g2 := graph.New()
	mustAdd(t, g2, "Variable", nil, graph.NodeArgs{Name: "v1", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{1}}})
	mustAdd(t, g2, "Variable", nil, graph.NodeArgs{Name: "v2", Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{1}}})
	if len(graph.CSE(g2)) != 0 {
		t.Error("CSE merged stateful nodes")
	}
}

func TestControlEdgesAndBackEdges(t *testing.T) {
	g := graph.New()
	a := constOf(t, g, "a", 1)
	b := mustAdd(t, g, "Neg", []graph.Endpoint{a.Out(0)}, graph.NodeArgs{})
	g.AddControlEdge(a, b)
	g.AddControlEdge(a, b) // idempotent
	if len(b.ControlInputs()) != 1 {
		t.Errorf("control inputs = %d, want 1 (deduplicated)", len(b.ControlInputs()))
	}
	// Back edges only connect NextIteration to Merge.
	if err := g.AddBackEdge(b, a.Out(0)); err == nil {
		t.Error("back edge to non-Merge accepted")
	}
}

func TestAttrAccessors(t *testing.T) {
	g := graph.New()
	n := mustAdd(t, g, "Const", nil, graph.NodeArgs{Attrs: map[string]any{
		"value": tensor.Scalar(1),
		"i":     7,
		"f":     1.5,
		"b":     true,
		"s":     "hello",
		"ints":  []int{1, 2},
		"shape": tensor.Shape{2, 3},
		"dt":    tensor.Int64,
	}})
	if n.AttrInt("i", 0) != 7 || n.AttrInt("missing", 9) != 9 {
		t.Error("AttrInt wrong")
	}
	if n.AttrFloat("f", 0) != 1.5 || !n.AttrBool("b", false) || n.AttrString("s", "") != "hello" {
		t.Error("scalar attr accessors wrong")
	}
	if ints, ok := n.AttrInts("ints"); !ok || len(ints) != 2 {
		t.Error("AttrInts wrong")
	}
	if s, ok := n.AttrShape("shape"); !ok || !s.Equal(tensor.Shape{2, 3}) {
		t.Error("AttrShape wrong")
	}
	if n.AttrDType("dt", tensor.Float32) != tensor.Int64 {
		t.Error("AttrDType wrong")
	}
	names := n.AttrNames()
	if len(names) != 8 || !strings.Contains(strings.Join(names, ","), "value") {
		t.Errorf("AttrNames = %v", names)
	}
}

func TestGraphDefRejectsCorruptInput(t *testing.T) {
	if _, err := graph.Unmarshal([]byte("not a graph")); err == nil {
		t.Error("garbage unmarshalled")
	}
	// Round-trip a graph with a loop (back edges) — the While structure.
	g := graph.New()
	c := constOf(t, g, "c", 0)
	enter := mustAdd(t, g, "Enter", []graph.Endpoint{c.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"frame_name": "f"},
	})
	merge := mustAdd(t, g, "Merge", []graph.Endpoint{enter.Out(0)}, graph.NodeArgs{})
	next := mustAdd(t, g, "NextIteration", []graph.Endpoint{merge.Out(0)}, graph.NodeArgs{})
	if err := g.AddBackEdge(merge, next.Out(0)); err != nil {
		t.Fatal(err)
	}
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := graph.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	m2 := back.ByName(merge.Name())
	if m2 == nil || m2.NumInputs() != 2 {
		t.Fatalf("back edge lost in round trip: %v", m2)
	}
}

// FuzzGraphUnmarshal feeds arbitrary bytes to Unmarshal, the decoder behind
// every RegisterGraph payload and saved model graph. It must return an
// error or a graph without panicking, allocate in proportion to the input
// (a 4-byte length prefix once cost 10 MB), and a decoded graph must
// survive a Marshal/Unmarshal round trip unchanged.
func FuzzGraphUnmarshal(f *testing.F) {
	for _, build := range []func(g *graph.Graph) error{
		func(g *graph.Graph) error { return nil },
		fuzzSeedLoop,
		fuzzSeedLookup,
	} {
		g := graph.New()
		if err := build(g); err != nil {
			f.Fatal(err)
		}
		data, err := g.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := graph.Unmarshal(data)
		runtime.ReadMemStats(&after)
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), alloc, budget)
		}
		if err != nil {
			return
		}
		again, err := g.Marshal()
		if err != nil {
			t.Fatalf("decoded graph does not re-encode: %v", err)
		}
		back, err := graph.Unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		if got, want := describeGraph(back), describeGraph(g); got != want {
			t.Fatalf("round trip changed the graph:\n%s\nwant\n%s", got, want)
		}
	})
}

// describeGraph renders every node's name, op, device, inputs and control
// inputs, one a line.
func describeGraph(g *graph.Graph) string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "%s %s %q %v ^", n.Name(), n.Op(), n.Device(), n.Inputs())
		for _, c := range n.ControlInputs() {
			sb.WriteString(c.Name() + ",")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// fuzzSeedLoop is a While-shaped frame: Enter, Merge and a NextIteration
// back edge.
func fuzzSeedLoop(g *graph.Graph) error {
	c, err := g.AddNode("Const", nil, graph.NodeArgs{Name: "c", Attrs: map[string]any{"value": tensor.Scalar(float32(1))}})
	if err != nil {
		return err
	}
	enter, err := g.AddNode("Enter", []graph.Endpoint{c.Out(0)}, graph.NodeArgs{Attrs: map[string]any{"frame_name": "f"}})
	if err != nil {
		return err
	}
	merge, err := g.AddNode("Merge", []graph.Endpoint{enter.Out(0)}, graph.NodeArgs{Attrs: map[string]any{graph.FrameAttr: "f"}})
	if err != nil {
		return err
	}
	next, err := g.AddNode("NextIteration", []graph.Endpoint{merge.Out(0)}, graph.NodeArgs{Attrs: map[string]any{graph.FrameAttr: "f"}})
	if err != nil {
		return err
	}
	return g.AddBackEdge(merge, next.Out(0))
}

// fuzzSeedLookup is an embedding lookup with devices, a control edge and
// attributes of several kinds.
func fuzzSeedLookup(g *graph.Graph) error {
	v, err := g.AddNode("Variable", nil, graph.NodeArgs{Name: "emb", Device: "/job:ps/task:0",
		Attrs: map[string]any{"dtype": tensor.Float32, "shape": tensor.Shape{4, 2}}})
	if err != nil {
		return err
	}
	init, err := g.AddNode("Const", nil, graph.NodeArgs{Attrs: map[string]any{"value": tensor.Fill(tensor.Float32, tensor.Shape{4, 2}, 0.5)}})
	if err != nil {
		return err
	}
	assign, err := g.AddNode("Assign", []graph.Endpoint{v.Out(0), init.Out(0)}, graph.NodeArgs{})
	if err != nil {
		return err
	}
	read, err := g.AddNode("Read", []graph.Endpoint{v.Out(0)}, graph.NodeArgs{Control: []*graph.Node{assign}})
	if err != nil {
		return err
	}
	ids, err := g.AddNode("Placeholder", nil, graph.NodeArgs{Name: "ids", Device: "/job:worker/task:0",
		Attrs: map[string]any{"dtype": tensor.Int32, "shape": tensor.Shape{-1}}})
	if err != nil {
		return err
	}
	rows, err := g.AddNode("Gather", []graph.Endpoint{read.Out(0), ids.Out(0)}, graph.NodeArgs{})
	if err != nil {
		return err
	}
	_, err = g.AddNode("Sum", []graph.Endpoint{rows.Out(0)}, graph.NodeArgs{
		Attrs: map[string]any{"reduction_indices": []int{0, 1}, "keep_dims": false}})
	return err
}
