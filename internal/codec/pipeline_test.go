package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

func TestForEachPlaneRunsAll(t *testing.T) {
	const planes = 137
	var hits [planes]atomic.Int32
	if err := forEachPlane(context.Background(), planes, func(p int) error {
		hits[p].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for p := range hits {
		if got := hits[p].Load(); got != 1 {
			t.Fatalf("plane %d ran %d times", p, got)
		}
	}
}

func TestForEachPlanePropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := forEachPlane(context.Background(), 64, func(p int) error {
		if p == 13 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
}

func TestPlaneFramingRoundTrip(t *testing.T) {
	x := tensor.New(5, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	payload, err := compressPlanes(context.Background(), planarLayout(noMode, 4, 4, x.Len()), x.Data(), func(p int, plane []float32) ([]byte, error) {
		// Variable-length per-plane payload: p+1 copies of byte p.
		out := make([]byte, p+1)
		for i := range out {
			out[i] = byte(p)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := readPlaneFrame(&memPayload{b: payload}, 5, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer frame.release()
	ends, seen := *frame.ends, 0
	for frame.taken < 5 {
		p0, p1, data, err := frame.group(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for p := p0; p < p1; p++ {
			part := data[planeStart(ends, p)-planeStart(ends, p0) : planeEnd(ends, p)-planeStart(ends, p0)]
			if len(part) != p+1 {
				t.Fatalf("plane %d length %d", p, len(part))
			}
			for _, b := range part {
				if b != byte(p) {
					t.Fatalf("plane %d payload corrupted", p)
				}
			}
			seen++
		}
	}
	if seen != 5 {
		t.Fatalf("frame handed out %d planes, want 5", seen)
	}
}

// TestPlaneFrameRejectsMalformed holds the one plane-frame parser to
// every structural rule: the shape-implied count, a whole length table,
// lengths inside the payload, no trailing bytes, and the per-plane
// size rules the families pass in.
func TestPlaneFrameRejectsMalformed(t *testing.T) {
	frame := func(lens []uint32, data ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(lens)))
		for _, n := range lens {
			b = binary.LittleEndian.AppendUint32(b, n)
		}
		return append(b, data...)
	}
	cases := []struct {
		name     string
		payload  []byte
		planes   int
		maxPlane int
		exact    bool
	}{
		{"empty", []byte{}, 1, 0, false},
		{"short header", []byte{1, 0}, 1, 0, false},
		// Each claims the count its header implies, so the failure is
		// structural.
		{"truncated table", binary.LittleEndian.AppendUint32(nil, 3), 3, 0, false},
		{"overrun length", frame([]uint32{100}, 1, 2, 3), 1, 0, false},
		{"trailing bytes", frame([]uint32{1}, 1, 2), 1, 0, false},
		{"plane-count mismatch", frame([]uint32{0, 0}), 3, 0, false},
		{"plane over budget", frame([]uint32{2, 4}, 1, 2, 3, 4, 5, 6), 2, 3, false},
		{"plane of the wrong fixed size", frame([]uint32{2, 4}, 1, 2, 3, 4, 5, 6), 2, 3, true},
	}
	for _, tc := range cases {
		if _, err := readPlaneFrame(&memPayload{b: tc.payload}, tc.planes, tc.maxPlane, tc.exact); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The rules admit what they should: planes under the budget, and
	// planes at exactly the fixed size.
	if _, err := readPlaneFrame(&memPayload{b: frame([]uint32{2, 3}, 1, 2, 3, 4, 5)}, 2, 3, false); err != nil {
		t.Errorf("planes within the budget rejected: %v", err)
	}
	if _, err := readPlaneFrame(&memPayload{b: frame([]uint32{3, 3}, 1, 2, 3, 4, 5, 6)}, 2, 3, true); err != nil {
		t.Errorf("planes of the fixed size rejected: %v", err)
	}
}

func TestScratchPoolReuse(t *testing.T) {
	a := getScratch(64)
	for i := range *a {
		(*a)[i] = 42
	}
	putScratch(a)
	b := getScratch(32)
	for i, v := range *b {
		if v != 0 {
			t.Fatalf("scratch not zeroed at %d: %g", i, v)
		}
	}
	putScratch(b)
}

func BenchmarkPipelineZFPPlanar(b *testing.B) {
	c, err := New("zfp:rate=8")
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(16, 3, 64, 64)
	for i := range x.Data() {
		x.Data()[i] = float32(i%97) / 97
	}
	b.SetBytes(int64(x.SizeBytes()))
	for i := 0; i < b.N; i++ {
		if _, _, err := c.RoundTrip(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineDCTCPlanar(b *testing.B) {
	for _, spec := range []string{"dctc:cf=4", "dctc:cf=4,sg"} {
		b.Run(spec, func(b *testing.B) {
			c, err := New(spec)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(16, 3, 64, 64)
			for i := range x.Data() {
				x.Data()[i] = float32(i%89) / 89
			}
			b.SetBytes(int64(x.SizeBytes()))
			for i := 0; i < b.N; i++ {
				data, err := c.Compress(x)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Decompress(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleNew() {
	c, _ := New("dctc:cf=4,sg")
	fmt.Println(c.Name(), c.Spec())
	// Output: dctc dctc:cf=4,sg
}

// TestForEachPlaneLowestIndexedError pins the determinism contract:
// when several planes fail concurrently, the pipeline reports the
// lowest-indexed failure no matter which worker finishes first. Plane 3
// is made the slowest failure by spinning until every other plane is
// claimed, so a first-error-wins implementation would report plane 40.
func TestForEachPlaneLowestIndexedError(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4)) // force the concurrent path
	const planes = 64
	var claimed atomic.Int64
	err3 := errors.New("plane 3 failed")
	err40 := errors.New("plane 40 failed")
	err := forEachPlane(context.Background(), planes, func(p int) error {
		claimed.Add(1)
		switch p {
		case 3:
			for claimed.Load() < planes {
				// Wait until the whole batch is claimed, so plane 40's
				// error lands first in wall-clock order.
				runtime.Gosched()
			}
			return err3
		case 40:
			return err40
		}
		return nil
	})
	if !errors.Is(err, err3) {
		t.Fatalf("got %v, want the lowest-indexed failure (plane 3)", err)
	}
}

// TestCompressPlanesRaggedLength: a tensor that is not a whole number
// of planes must be rejected, not silently truncated.
func TestCompressPlanesRaggedLength(t *testing.T) {
	x := tensor.New(100)
	_, err := compressPlanes(context.Background(), planarLayout(noMode, 3, 3, x.Len()), x.Data(), func(p int, plane []float32) ([]byte, error) {
		return []byte{0}, nil
	})
	if err == nil {
		t.Fatal("100 values over 3×3 planes compressed without error")
	}
	if want := "1 trailing values"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the trailing values", err)
	}
}

// TestGetScratchNoZero checks the no-zero variant really skips the
// clear (the zeroing variant is the one with the stronger contract, so
// reuse must surface stale data here, not zeros).
func TestGetScratchNoZero(t *testing.T) {
	a := getScratchNoZero(64)
	for i := range *a {
		(*a)[i] = 42
	}
	putScratch(a)
	b := getScratchNoZero(64)
	defer putScratch(b)
	// sync.Pool may or may not hand back the same buffer; only assert
	// when it did.
	if a == b {
		if (*b)[0] != 42 {
			t.Fatal("no-zero scratch was cleared")
		}
	}
}

// TestSetMaxWorkersDuringFanOut moves the cap while an sz encode, a
// dctc encode and a DecodeRange are running: the cap is one atomic
// value, so under -race this reports nothing, and every decode still
// matches.
func TestSetMaxWorkersDuringFanOut(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(0))
	data, want := writeIndexedStream(t, false)
	ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(3).Uniform(0, 1, 4, 3, 32, 32)
	stop := make(chan struct{})
	setter := make(chan struct{})
	go func() {
		defer close(setter)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetMaxWorkers(i % 3)
			runtime.Gosched()
		}
	}()
	errs := make(chan error, 3)
	for _, spec := range []string{"sz:eb=1e-3", "dctc:cf=4"} {
		go func() {
			c, err := New(spec)
			for i := 0; i < 10 && err == nil; i++ {
				_, err = c.Compress(x)
			}
			errs <- err
		}()
	}
	go func() {
		for i := 0; i < 10; i++ {
			outs, err := ix.DecodeRange(context.Background(), 0, ix.Len())
			if err != nil {
				errs <- err
				return
			}
			for j := range outs {
				if !outs[j].Equal(want[j]) {
					errs <- fmt.Errorf("DecodeRange record %d differs", j)
					return
				}
			}
		}
		errs <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-setter
}
