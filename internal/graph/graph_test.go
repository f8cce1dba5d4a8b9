package graph

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

func buildSimple(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("simple")
	x := b.Input("x", 2, 3, 4, 4)
	w := b.Const("w", tensor.Eye(4))
	y := b.MatMulRight(x, w)
	b.Output(y)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderShapeInference(t *testing.T) {
	b := NewBuilder("shapes")
	x := b.Input("x", 2, 3, 8, 8)
	lhs := b.Const("lhs", tensor.New(4, 8))
	rhs := b.Const("rhs", tensor.New(8, 4))
	y1 := b.MatMulLeft(lhs, x)
	if y1.Shape[2] != 4 || y1.Shape[3] != 8 {
		t.Fatalf("matmul_left shape %v", y1.Shape)
	}
	y2 := b.MatMulRight(y1, rhs)
	if y2.Shape[2] != 4 || y2.Shape[3] != 4 {
		t.Fatalf("matmul shape %v", y2.Shape)
	}
	flat := b.Reshape(y2, 2, 3, 16)
	g := b.Gather(flat, []int{0, 5, 10})
	if g.Shape[2] != 3 {
		t.Fatalf("gather shape %v", g.Shape)
	}
	s := b.Scatter(g, []int{0, 5, 10}, 16)
	if s.Shape[2] != 16 {
		t.Fatalf("scatter shape %v", s.Shape)
	}
	b.Output(s)
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderErrorsLatch(t *testing.T) {
	b := NewBuilder("bad")
	x := b.Input("x", 2, 4)
	w := b.Const("w", tensor.New(5, 3)) // inner dim mismatch
	y := b.MatMulRight(x, w)
	b.Output(y)
	if _, err := b.Finish(); err == nil {
		t.Fatal("mismatched matmul must fail Finish")
	} else if !strings.Contains(err.Error(), "inner dims") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestBuilderRequiresOutput(t *testing.T) {
	b := NewBuilder("noout")
	b.Input("x", 2)
	if _, err := b.Finish(); err == nil {
		t.Fatal("graph without outputs must fail")
	}
}

func TestBuilderRejectsBadInputs(t *testing.T) {
	cases := []func(b *Builder){
		func(b *Builder) { b.Input("x", -1) },
		func(b *Builder) { b.Gather(b.Input("x", 2, 3), []int{3}) },
		func(b *Builder) { b.Scatter(b.Input("x", 2, 3), []int{0, 1, 5}, 4) },
		func(b *Builder) { b.Reshape(b.Input("x", 2, 3), 7) },
	}
	for i, f := range cases {
		b := NewBuilder("bad")
		f(b)
		b.Output(b.Input("z", 1))
		if _, err := b.Finish(); err == nil {
			t.Fatalf("case %d: expected builder error", i)
		}
	}
}

func TestExecuteMatchesTensorOps(t *testing.T) {
	r := tensor.NewRNG(1)
	lhsT := r.Uniform(-1, 1, 4, 8)
	rhsT := lhsT.Transpose()

	b := NewBuilder("compress-like")
	x := b.Input("A", 2, 3, 8, 8)
	lhs := b.Const("LHS", lhsT)
	rhs := b.Const("RHS", rhsT)
	b.Output(b.MatMulRight(b.MatMulLeft(lhs, x), rhs))
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	a := r.Uniform(-1, 1, 2, 3, 8, 8)
	outs, err := g.Execute(map[string]*tensor.Tensor{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.BatchedMatMul(tensor.BatchedMatMulLeft(lhsT, a), rhsT)
	if d := outs[0].MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("graph execution deviates from direct ops by %g", d)
	}
}

func TestExecuteGatherScatterReshape(t *testing.T) {
	r := tensor.NewRNG(2)
	b := NewBuilder("gsa")
	x := b.Input("x", 2, 6)
	idx := []int{5, 1, 3}
	g1 := b.Gather(x, idx)
	s1 := b.Scatter(g1, idx, 6)
	b.Output(b.Reshape(s1, 3, 4))
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	xt := r.Uniform(-1, 1, 2, 6)
	outs, err := g.Execute(map[string]*tensor.Tensor{"x": xt})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.ScatterLast(tensor.GatherLast(xt, idx), idx, 6).Reshape(3, 4)
	if !outs[0].Equal(want) {
		t.Fatal("gather/scatter/reshape chain wrong")
	}
}

func TestExecuteStaticShapeContract(t *testing.T) {
	g := buildSimple(t)
	r := tensor.NewRNG(3)
	// Wrong shape must be rejected: compiled tensor sizes are static.
	if _, err := g.Execute(map[string]*tensor.Tensor{"x": r.Uniform(0, 1, 2, 3, 8, 8)}); err == nil {
		t.Fatal("shape mismatch must fail Execute")
	}
	// Missing input must be rejected.
	if _, err := g.Execute(nil); err == nil {
		t.Fatal("missing input must fail Execute")
	}
}

func TestExecuteBitOps(t *testing.T) {
	b := NewBuilder("bits")
	x := b.Input("x", 4)
	b.Output(b.BitShift(x, -1))
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.FromSlice([]float32{2, 4, 8, 16}, 4)
	outs, err := g.Execute(map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	// Right-shifting a float's bits by 1 halves the exponent field's
	// contribution — for powers of two with zero mantissa this yields a
	// positive value smaller than the input.
	for i := range in.Data() {
		if outs[0].Data()[i] >= in.Data()[i] || outs[0].Data()[i] <= 0 {
			t.Fatalf("bitshift output %v not plausible", outs[0].Data())
		}
	}
}

func TestFLOPAccounting(t *testing.T) {
	b := NewBuilder("flops")
	x := b.Input("x", 10, 3, 16, 8) // 30 matrices of 16×8
	w := b.Const("w", tensor.New(8, 4))
	b.Output(b.MatMulRight(x, w))
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 30 * 16 * 8 * 4
	if g.TotalFLOPs() != want {
		t.Fatalf("TotalFLOPs = %g, want %g", g.TotalFLOPs(), want)
	}
}

func TestByteAccounting(t *testing.T) {
	g := buildSimple(t)
	if g.InputBytes() != 4*2*3*4*4 {
		t.Fatalf("InputBytes = %d", g.InputBytes())
	}
	if g.OutputBytes() != 4*2*3*4*4 {
		t.Fatalf("OutputBytes = %d", g.OutputBytes())
	}
	if g.ConstBytes() != 4*16 {
		t.Fatalf("ConstBytes = %d", g.ConstBytes())
	}
	counts := g.OpCounts()
	if counts[OpMatMulRight] != 1 || counts[OpInput] != 1 || counts[OpConst] != 1 {
		t.Fatalf("OpCounts = %v", counts)
	}
}

// ConstBytes sums the compile-time constant footprints (the fused
// matrices that must be resident on-chip).
func (g *Graph) ConstBytes() int {
	b := 0
	for _, n := range g.Nodes {
		if n.Kind == OpConst {
			b += n.Bytes()
		}
	}
	return b
}

// OpCounts tallies nodes by kind.
func (g *Graph) OpCounts() map[OpKind]int {
	m := make(map[OpKind]int)
	for _, n := range g.Nodes {
		m[n.Kind]++
	}
	return m
}
