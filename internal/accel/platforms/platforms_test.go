package platforms

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/graph"
)

func TestAcceleratorsTable1Order(t *testing.T) {
	devs := Accelerators()
	want := []string{"CS-2", "SN30", "GroqChip", "IPU"}
	if len(devs) != len(want) {
		t.Fatalf("%d accelerators", len(devs))
	}
	for i, w := range want {
		if devs[i].Name() != w {
			t.Fatalf("position %d: %s, want %s", i, devs[i].Name(), w)
		}
	}
}

func TestAllIncludesGPU(t *testing.T) {
	devs := All()
	if len(devs) != 5 || devs[4].Name() != "A100" {
		t.Fatalf("All() = %v devices, last %s", len(devs), devs[len(devs)-1].Name())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"CS-2", "SN30", "GroqChip", "IPU", "A100"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("cs-2") != nil {
		t.Error("ByName is case-sensitive like Table 1")
	}
	if ByName("") != nil {
		t.Error("empty name must not match")
	}
}

func TestFreshInstancesPerCall(t *testing.T) {
	// Each call returns fresh devices so callers can't alias state.
	a := Accelerators()
	b := Accelerators()
	for i := range a {
		if a[i] == b[i] {
			t.Fatal("Accelerators must construct fresh devices")
		}
	}
}

func TestOperatorSupportMatrix(t *testing.T) {
	// §3.1/§3.5.2: the portability matrix the paper's design navigates.
	// Each row compiles a graph of one operator over 8×8 inputs, which
	// every device accepts: an error means the operator is unsupported.
	type row struct {
		op       graph.OpKind
		build    func(b *graph.Builder, x *graph.Node) *graph.Node
		expected map[string]bool
	}
	all := func(v bool) map[string]bool {
		return map[string]bool{"CS-2": v, "SN30": v, "GroqChip": v, "IPU": v, "A100": v}
	}
	matmulEverywhere := all(true)
	gatherScatter := all(false)
	gatherScatter["IPU"] = true
	gatherScatter["A100"] = true
	bitOps := all(false)
	bitOps["A100"] = true
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rows := []row{
		{graph.OpMatMulRight, func(b *graph.Builder, x *graph.Node) *graph.Node { return b.MatMulRight(x, b.Input("w", 8, 8)) }, matmulEverywhere},
		{graph.OpMatMulLeft, func(b *graph.Builder, x *graph.Node) *graph.Node { return b.MatMulLeft(b.Input("w", 8, 8), x) }, matmulEverywhere},
		{graph.OpReshape, func(b *graph.Builder, x *graph.Node) *graph.Node { return b.Reshape(x, 64) }, matmulEverywhere},
		{graph.OpGather, func(b *graph.Builder, x *graph.Node) *graph.Node { return b.Gather(x, idx[:4]) }, gatherScatter},
		{graph.OpScatter, func(b *graph.Builder, x *graph.Node) *graph.Node { return b.Scatter(x, idx, 16) }, gatherScatter},
		{graph.OpBitShift, func(b *graph.Builder, x *graph.Node) *graph.Node { return b.BitShift(x, 3) }, bitOps},
		{graph.OpBitAnd, func(b *graph.Builder, x *graph.Node) *graph.Node { return b.BitAnd(x, b.Input("mask", 8, 8)) }, bitOps},
	}
	for _, r := range rows {
		b := graph.NewBuilder(r.op.String())
		b.Output(r.build(b, b.Input("x", 8, 8)))
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range All() {
			_, err := d.Compile(g)
			var ce *accel.CompileError
			if err != nil && (!errors.As(err, &ce) || !strings.Contains(ce.Reason, r.op.String())) {
				t.Fatalf("%s: %v compiles to %v, want an unsupported-operator error or none", d.Name(), r.op, err)
			}
			if got := err == nil; got != r.expected[d.Name()] {
				t.Errorf("%s supports %v = %v, want %v", d.Name(), r.op, got, r.expected[d.Name()])
			}
		}
	}
}
