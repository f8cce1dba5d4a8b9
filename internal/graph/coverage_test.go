package graph

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestOpKindStrings(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpInput:       "input",
		OpConst:       "const",
		OpMatMulRight: "matmul",
		OpMatMulLeft:  "matmul_left",
		OpGather:      "gather",
		OpScatter:     "scatter",
		OpReshape:     "reshape",
		OpBitShift:    "bitshift",
		OpBitAnd:      "bitand",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if OpKind(99).String() != "op(99)" {
		t.Errorf("unknown op renders %q", OpKind(99).String())
	}
}

func TestMatMulLeftFLOPs(t *testing.T) {
	b := NewBuilder("f")
	w := b.Const("w", tensor.New(4, 8))
	x := b.Input("x", 2, 3, 8, 5)
	y := b.MatMulLeft(w, x)
	b.Output(y)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// 2·batch·m·k·cols = 2·6·4·8·5.
	want := 2.0 * 6 * 4 * 8 * 5
	if g.TotalFLOPs() != want {
		t.Fatalf("FLOPs = %g, want %g", g.TotalFLOPs(), want)
	}
}

func TestBitAndExec(t *testing.T) {
	b := NewBuilder("bitand")
	x := b.Input("x", 4)
	mask := b.Const("mask", tensor.Full(math.Float32frombits(0xFFFFFFFF), 4))
	b.Output(b.BitAnd(x, mask))
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.FromSlice([]float32{1.5, -2.25, 0, 7}, 4)
	outs, err := g.Execute(map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	// AND with all-ones mask is identity on the bit pattern.
	if !outs[0].Equal(in) {
		t.Fatalf("bitand with all-ones mask changed data: %v", outs[0].Data())
	}
	// AND with zero mask clears everything.
	b2 := NewBuilder("bitand0")
	x2 := b2.Input("x", 4)
	zero := b2.Const("mask", tensor.New(4))
	b2.Output(b2.BitAnd(x2, zero))
	g2, err := b2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	outs2, err := g2.Execute(map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	if outs2[0].MaxAbs() != 0 {
		t.Fatal("bitand with zero mask must clear")
	}
}

func TestBitShiftLeftExec(t *testing.T) {
	b := NewBuilder("shl")
	x := b.Input("x", 2)
	b.Output(b.BitShift(x, 1))
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.FromSlice([]float32{1, 2}, 2)
	outs, err := g.Execute(map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	// Left shift of the float bits doubles the exponent field's
	// contribution for these power-of-two values: 1<<1 bitwise gives a
	// larger-magnitude pattern than the input.
	for i, v := range outs[0].Data() {
		bits := math.Float32bits(in.Data()[i]) << 1
		if v != math.Float32frombits(bits) {
			t.Fatalf("bitshift-left result %g, want bit pattern %#x", v, bits)
		}
	}
}
