package codec

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// peakJob records the most RunPlane calls in flight at once; each plane
// does one dctc round trip into its own output, so dctc's core runs
// inside the plane loop under the same cap.
type peakJob struct {
	c          Codec
	x          *tensor.Tensor
	dst        []*tensor.Tensor
	errs       []error
	live, peak atomic.Int32
}

func (j *peakJob) RunPlane(p int) {
	n := j.live.Add(1)
	for old := j.peak.Load(); n > old && !j.peak.CompareAndSwap(old, n); old = j.peak.Load() {
	}
	_, j.errs[p] = RoundTripInto(j.c, j.dst[p], j.x)
	j.live.Add(-1)
}

// TestSetMaxWorkersSequential pins the deterministic-tests contract:
// with the cap at 1 every plane loop — forEachPlane, and the pool that
// dctc's core and the matmuls use — runs one plane at a time, in order,
// on the caller's goroutine, and the previous cap must round-trip
// through the setter.
func TestSetMaxWorkersSequential(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)

	var order []int
	if err := forEachPlane(context.Background(), 32, func(p int) error {
		order = append(order, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for p, got := range order {
		if got != p {
			t.Fatalf("plane order %v is not sequential", order)
		}
	}

	c, err := New("dctc:cf=4")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(5).Uniform(0, 1, 8, 3, 64, 64)
	want := tensor.New(x.Shape()...)
	if _, err := RoundTripInto(c, want, x); err != nil {
		t.Fatal(err)
	}
	const planes = 6
	j := &peakJob{c: c, x: x, dst: make([]*tensor.Tensor, planes), errs: make([]error, planes)}
	for p := range j.dst {
		j.dst[p] = tensor.New(x.Shape()...)
	}
	tensor.ParallelPlanes(planes, j)
	if got := j.peak.Load(); got != 1 {
		t.Errorf("under SetMaxWorkers(1), %d planes ran at once, want 1", got)
	}
	for p := range j.dst {
		if j.errs[p] != nil {
			t.Fatal(j.errs[p])
		}
		if d := j.dst[p].MaxAbsDiff(want); d != 0 {
			t.Fatalf("plane %d: dctc round trip differs by %g", p, d)
		}
	}

	if got := SetMaxWorkers(8); got != 1 {
		t.Fatalf("SetMaxWorkers returned previous cap %d, want 1", got)
	}
	if got := SetMaxWorkers(0); got != 8 {
		t.Fatalf("SetMaxWorkers returned previous cap %d, want 8", got)
	}
	if got := SetMaxWorkers(-3); got != 0 {
		t.Fatalf("reset cap reads back %d, want 0 (GOMAXPROCS)", got)
	}
}

// TestDCTCRegistryMatchesDenseOracle closes the loop between the
// registry's fast-kernel execution path and the dense-matmul reference:
// for every dctc conformance spec, the container round trip must agree
// with the compiled compressor's dense oracle to ≤1e-5.
func TestDCTCRegistryMatchesDenseOracle(t *testing.T) {
	x := conformanceBatch()
	n := x.Dim(-1)
	for _, tc := range conformanceSpecs {
		if !strings.HasPrefix(tc.spec, "dctc:") {
			continue
		}
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			c, err := New(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			back, err := c.Decompress(data)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := Compiler(c, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := comp.RoundTripDense(x)
			if err != nil {
				t.Fatal(err)
			}
			if d := back.MaxAbsDiff(want); d > 1e-5 {
				t.Fatalf("registry round trip diverges from dense oracle: max abs diff %g", d)
			}
		})
	}
}
