package ops

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// textbook applies one update of rule r to a single element in float64,
// straight from the rule's formula. It is the independent reference the
// kernels are checked against: s holds the element's slot values in Slots
// order, t is the 1-based update count.
func textbook(r UpdateRule, t int, w float64, s []float64, g float64) float64 {
	lr := r.LearningRate
	switch r.Algo {
	case "sgd":
		return w - lr*g
	case "momentum":
		s[0] = r.Decay*s[0] + g
		return w - lr*s[0]
	case "adagrad":
		s[0] += g * g
		return w - lr*g/math.Sqrt(s[0])
	case "rmsprop":
		s[0] = r.Decay*s[0] + (1-r.Decay)*g*g
		return w - lr*g/math.Sqrt(s[0]+r.Epsilon)
	case "adadelta":
		s[0] = r.Decay*s[0] + (1-r.Decay)*g*g
		u := math.Sqrt(s[1]+r.Epsilon) / math.Sqrt(s[0]+r.Epsilon) * g
		s[1] = r.Decay*s[1] + (1-r.Decay)*u*u
		return w - lr*u
	case "adam":
		s[0] = r.Decay*s[0] + (1-r.Decay)*g
		s[1] = r.Decay2*s[1] + (1-r.Decay2)*g*g
		mHat := s[0] / (1 - math.Pow(r.Decay, float64(t)))
		vHat := s[1] / (1 - math.Pow(r.Decay2, float64(t)))
		return w - lr*mHat/(math.Sqrt(vHat)+r.Epsilon)
	}
	panic("no textbook formula for " + r.Algo)
}

var batteryRules = []UpdateRule{
	{Algo: "sgd", LearningRate: 0.1},
	{Algo: "momentum", LearningRate: 0.1, Decay: 0.9},
	{Algo: "adagrad", LearningRate: 0.5, InitialAccum: 0.1},
	{Algo: "rmsprop", LearningRate: 0.05, Decay: 0.9, Epsilon: 1e-8},
	{Algo: "adadelta", LearningRate: 1, Decay: 0.95, Epsilon: 1e-6},
	{Algo: "adam", LearningRate: 0.1, Decay: 0.9, Decay2: 0.999, Epsilon: 1e-8},
}

const (
	batteryRows  = 3
	batteryWidth = 2
	batterySteps = 4
)

// batteryState is a variable and its slots, initialized for the battery.
func batteryState(t *testing.T, r UpdateRule, dt tensor.DType) (*Variable, []*Variable) {
	t.Helper()
	shape := tensor.Shape{batteryRows, batteryWidth}
	v := NewVariable(dt, shape)
	init := tensor.New(dt, shape)
	for i := range init.NumElements() {
		init.SetFloat(i, 0.25*float64(i)-0.6)
	}
	if err := v.Assign(init); err != nil {
		t.Fatal(err)
	}
	var slots []*Variable
	for range r.Slots() {
		s := NewVariable(dt, shape)
		if err := s.Assign(tensor.Fill(dt, shape, r.SlotFill())); err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	return v, slots
}

// batteryGrad is element i's gradient at step k: mixed signs and sizes.
func batteryGrad(k, i int) float64 { return math.Sin(float64(3*k+i+1)) * (0.5 + 0.1*float64(i)) }

func checkBattery(t *testing.T, r UpdateRule, v *Variable, slots []*Variable, wantW []float64, wantS [][]float64) {
	t.Helper()
	const tol = 1e-6
	got := []*Variable{v}
	want := [][]float64{wantW}
	for j, s := range slots {
		got = append(got, s)
		want = append(want, make([]float64, len(wantW)))
		for i := range wantW {
			want[j+1][i] = wantS[i][j]
		}
	}
	for k, gv := range got {
		val, err := gv.Read()
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want[k] {
			if d := math.Abs(val.FloatAt(i) - w); !(d <= tol*math.Max(1, math.Abs(w))) {
				name := "w"
				if k > 0 {
					name = r.Slots()[k-1]
				}
				t.Errorf("%s[%d] = %.9g, textbook %.9g", name, i, val.FloatAt(i), w)
			}
		}
	}
}

// TestUpdateRulesMatchTextbookDense checks every rule's dense kernel against
// its float64 textbook formula over several steps, on float32 and float64
// variables.
func TestUpdateRulesMatchTextbookDense(t *testing.T) {
	for _, r := range batteryRules {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.Float64} {
			t.Run(fmt.Sprintf("%s/%v", r.Algo, dt), func(t *testing.T) {
				v, slots := batteryState(t, r, dt)
				n := batteryRows * batteryWidth
				wantW := make([]float64, n)
				wantS := make([][]float64, n)
				for i := range wantW {
					wantW[i] = 0.25*float64(i) - 0.6
					wantS[i] = make([]float64, len(slots))
					for j := range wantS[i] {
						wantS[i][j] = r.SlotFill()
					}
				}
				for k := 1; k <= batterySteps; k++ {
					grad := tensor.New(dt, tensor.Shape{batteryRows, batteryWidth})
					for i := range n {
						grad.SetFloat(i, batteryGrad(k, i))
						wantW[i] = textbook(r, k, wantW[i], wantS[i], grad.FloatAt(i))
					}
					if err := r.Apply(int64(k), v, slots, nil, grad); err != nil {
						t.Fatal(err)
					}
				}
				checkBattery(t, r, v, slots, wantW, wantS)
			})
		}
	}
}

// TestUpdateRulesMatchTextbookSparse checks the sparse kernels: only the
// indexed rows change, and a row indexed twice gets one update from its
// summed gradient.
func TestUpdateRulesMatchTextbookSparse(t *testing.T) {
	indices := tensor.FromInt32s(tensor.Shape{3}, []int32{2, 0, 2})
	for _, r := range batteryRules {
		if !r.HasSparse() {
			continue
		}
		for _, dt := range []tensor.DType{tensor.Float32, tensor.Float64} {
			t.Run(fmt.Sprintf("%s/%v", r.Algo, dt), func(t *testing.T) {
				v, slots := batteryState(t, r, dt)
				n := batteryRows * batteryWidth
				wantW := make([]float64, n)
				wantS := make([][]float64, n)
				for i := range wantW {
					wantW[i] = 0.25*float64(i) - 0.6
					wantS[i] = make([]float64, len(slots))
					for j := range wantS[i] {
						wantS[i][j] = r.SlotFill()
					}
				}
				for k := 1; k <= batterySteps; k++ {
					values := tensor.New(dt, tensor.Shape{indices.NumElements(), batteryWidth})
					rowGrad := map[int][]float64{}
					for p := range indices.NumElements() {
						row := indices.IntAt(p)
						if rowGrad[row] == nil {
							rowGrad[row] = make([]float64, batteryWidth)
						}
						for j := range batteryWidth {
							values.SetFloat(p*batteryWidth+j, batteryGrad(k, p*batteryWidth+j))
							rowGrad[row][j] += values.FloatAt(p*batteryWidth + j)
						}
					}
					for row, g := range rowGrad {
						for j, gj := range g {
							i := row*batteryWidth + j
							wantW[i] = textbook(r, k, wantW[i], wantS[i], gj)
						}
					}
					if err := r.Apply(int64(k), v, slots, indices, values); err != nil {
						t.Fatal(err)
					}
				}
				checkBattery(t, r, v, slots, wantW, wantS)
			})
		}
	}
}

// TestUpdateRuleRejectsBadInputs: a malformed update fails before touching
// the variable.
func TestUpdateRuleRejectsBadInputs(t *testing.T) {
	r := UpdateRule{Algo: "momentum", LearningRate: 0.1, Decay: 0.9}
	v, slots := batteryState(t, r, tensor.Float32)
	before, _ := v.Read()
	for name, apply := range map[string]func() error{
		"unknown rule": func() error {
			return UpdateRule{Algo: "nesterov"}.Apply(1, v, slots, nil, tensor.New(tensor.Float32, v.Shape()))
		},
		"missing slot": func() error { return r.Apply(1, v, nil, nil, tensor.New(tensor.Float32, v.Shape())) },
		"dtype":        func() error { return r.Apply(1, v, slots, nil, tensor.New(tensor.Float64, v.Shape())) },
		"shape":        func() error { return r.Apply(1, v, slots, nil, tensor.New(tensor.Float32, tensor.Shape{2})) },
		"index range": func() error {
			return r.Apply(1, v, slots, tensor.FromInt32s(tensor.Shape{2}, []int32{0, 3}),
				tensor.New(tensor.Float32, tensor.Shape{2, batteryWidth}))
		},
		"no sparse form": func() error {
			rms := UpdateRule{Algo: "rmsprop", LearningRate: 0.1}
			return rms.Apply(1, v, slots, tensor.FromInt32s(tensor.Shape{1}, []int32{0}),
				tensor.New(tensor.Float32, tensor.Shape{1, batteryWidth}))
		},
	} {
		if err := apply(); err == nil {
			t.Errorf("%s: Apply succeeded", name)
		}
	}
	after, _ := v.Read()
	if !after.Equal(before) {
		t.Errorf("rejected updates changed the variable: %v -> %v", before, after)
	}
}
