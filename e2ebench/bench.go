package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// rangeWindow is the DecodeRange batch: a training loader's prefetch of
// a few consecutive records.
const rangeWindow = 8

// setupReps is how many cold starts setup_s is taken over.
const setupReps = 60

// blockLen is how many consecutive samples (passes, or set-ups) are
// pooled into one before the median is taken.
const blockLen = 3

// minPasses is the fewest timed passes a run reports a median over,
// however short --seconds is.
const minPasses = 3

// psnrCapDB is reported for a bit-exact decode, whose PSNR is infinite.
const psnrCapDB = 200

// phaseNames lists the timed read/write phases of one pass, in order.
var phaseNames = []string{"encode", "decode", "seek", "range", "fused"}

// bench holds a workload with everything the timed phases compare
// against: the reference decode of each record and the reference stream.
type bench struct {
	w     *workload
	c     codec.Codec
	nproc int
	raw   float64 // uncompressed bytes

	refs       []*tensor.Tensor // Codec.Decompress of each record's container
	containers [][]byte         // Codec.Compress of each record
	stream     []byte           // the indexed stream every phase reads
	sink       *bytes.Buffer    // pre-sized, reused by every encode phase
	ix         *codec.IndexedStream
	fusedDst   map[string]*tensor.Tensor // RoundTripInto outputs, one per shape
	n          *ops
}

// newBench compresses every record once with the workload's codec,
// checks the reference decodes against the workload's oracle, and
// writes the reference stream. None of this is timed.
func newBench(w *workload, n *ops) (*bench, error) {
	c, err := codec.New(w.spec)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, c: c, nproc: runtime.GOMAXPROCS(0), raw: float64(w.rawBytes()), n: n,
		fusedDst: map[string]*tensor.Tensor{}}
	for i, x := range w.records {
		data, err := c.Compress(x)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		ref, err := c.Decompress(data)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		if !w.holds(x, ref) {
			return nil, fmt.Errorf("record %d: reference decode fails the %s oracle", i, w.name)
		}
		b.containers = append(b.containers, data)
		b.refs = append(b.refs, ref)
		key := shapeKey(x.Shape())
		if b.fusedDst[key] == nil {
			b.fusedDst[key] = tensor.New(x.Shape()...)
		}
	}
	var buf bytes.Buffer
	if err := writeStream(&buf, c, w.records, false); err != nil {
		return nil, err
	}
	b.stream = buf.Bytes()
	b.sink = bytes.NewBuffer(make([]byte, 0, len(b.stream)))
	if b.ix, err = codec.OpenIndexedStream(bytes.NewReader(b.stream), int64(len(b.stream))); err != nil {
		return nil, err
	}
	return b, nil
}

// holds applies the workload's own oracle to a decode of x: bit-exact
// for a lossless workload, within the error bound for an error-bounded
// one.
func (w *workload) holds(x, out *tensor.Tensor) bool {
	if !slices.Equal(x.Shape(), out.Shape()) {
		return false
	}
	if w.lossless {
		return bytes.Equal(floatBytes(x.Data()), floatBytes(out.Data()))
	}
	if w.maxAbsErr > 0 {
		return x.MaxAbsDiff(out) <= w.maxAbsErr
	}
	return true
}

// verify checks one decoded record: bit-identical to Codec.Decompress of
// the record's container, and within the workload's oracle.
func (b *bench) verify(i int, out *tensor.Tensor) bool {
	ok := out != nil && slices.Equal(out.Shape(), b.refs[i].Shape()) &&
		bytes.Equal(floatBytes(out.Data()), floatBytes(b.refs[i].Data())) &&
		b.w.holds(b.w.records[i], out)
	return b.n.check(ok)
}

// floatBytes views float32s as their in-memory bytes, for exact
// comparison (NaN payloads included).
func floatBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f))
}

func shapeKey(s []int) string { return fmt.Sprint(s) }

// writeStream writes every record through one StreamWriter with the
// index footer on. pipelined selects the concurrent writer over a
// single-worker plane pipeline, so parallelism is never nested.
func writeStream(dst io.Writer, c codec.Codec, records []*tensor.Tensor, pipelined bool) error {
	sw := codec.NewStreamWriter(dst)
	if err := sw.SetIndex(true); err != nil {
		return err
	}
	if pipelined {
		defer codec.SetMaxWorkers(codec.SetMaxWorkers(1))
		if err := sw.SetConcurrency(runtime.GOMAXPROCS(0)); err != nil {
			return err
		}
	}
	ctx := context.Background()
	for i, x := range records {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			return fmt.Errorf("writing record %d: %w", i, err)
		}
	}
	return sw.Close()
}

// phaseTime is one phase's measured time over its library calls only
// (checks excluded): wall-clock, and the process CPU time of all
// threads. CPU time is what the gated metrics use: on a shared virtual
// host, time stolen by other guests inflates wall-clock by tens of
// percent from one minute to the next, but is not CPU time.
type phaseTime struct {
	wall, cpu time.Duration
	lat       []time.Duration // per-call wall latency, for the seek phase
}

// call times one library call into pt, recording it as a span unless
// the tracer is nil (the end-to-end run).
func (t *tracer) call(pt *phaseTime, name string, rec int, bytes int64, fn func() error) error {
	s := t.begin(name, rec, -1, bytes)
	c0 := processCPU()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	pt.cpu += processCPU() - c0
	t.end(s)
	pt.wall += d
	pt.lat = append(pt.lat, d)
	return err
}

// runPhase runs one named phase once and verifies its outputs; the
// encode phase writes into the reused sink and must reproduce the
// reference stream byte for byte.
func (b *bench) runPhase(name string, t *tracer, pass int) phaseTime {
	var pt phaseTime
	ctx := context.Background()
	switch name {
	case "encode", "pipelined":
		b.sink.Reset()
		err := t.call(&pt, "stream."+name, -1, int64(b.raw), func() error {
			return writeStream(b.sink, b.c, b.w.records, name == "pipelined")
		})
		ok := err == nil && bytes.Equal(b.sink.Bytes(), b.stream)
		for range b.w.records {
			b.n.check(ok)
		}
	case "decode", "readahead":
		sr, err := codec.NewStreamReader(bytes.NewReader(b.stream))
		if !b.n.check(err == nil) {
			return pt
		}
		if name == "readahead" {
			rctx, cancel := context.WithCancel(ctx)
			defer cancel()
			if !b.n.check(sr.SetReadAhead(rctx, 2) == nil) {
				return pt
			}
		}
		for i := 0; ; i++ {
			var out *tensor.Tensor
			err := t.call(&pt, "stream."+name, i, 0, func() error {
				if _, err := sr.Next(); err != nil {
					return err
				}
				var err error
				out, err = sr.Decode(ctx)
				return err
			})
			if errors.Is(err, io.EOF) {
				b.n.check(i == len(b.w.records))
				break
			}
			if !b.n.check(err == nil && i < len(b.refs)) {
				break
			}
			b.verify(i, out)
		}
	case "seek":
		order := rand.New(rand.NewSource(int64(pass))).Perm(len(b.w.records))
		for _, i := range order {
			var out *tensor.Tensor
			err := t.call(&pt, "index.seek", i, int64(b.w.records[i].SizeBytes()), func() error {
				var err error
				out, err = b.ix.DecodeAt(ctx, i)
				return err
			})
			if b.n.check(err == nil) {
				b.verify(i, out)
			}
		}
	case "range":
		defer codec.SetMaxWorkers(codec.SetMaxWorkers(1))
		if !b.n.check(b.ix.SetConcurrency(b.nproc) == nil) {
			return pt
		}
		for lo := 0; lo < len(b.w.records); lo += rangeWindow {
			hi := min(lo+rangeWindow, len(b.w.records))
			var outs []*tensor.Tensor
			err := t.call(&pt, "index.range", lo, 0, func() error {
				var err error
				outs, err = b.ix.DecodeRange(ctx, lo, hi)
				return err
			})
			if !b.n.check(err == nil && len(outs) == hi-lo) {
				continue
			}
			for k, out := range outs {
				b.verify(lo+k, out)
			}
		}
	case "fused", "fused-parallel":
		if name == "fused" {
			defer codec.SetMaxWorkers(codec.SetMaxWorkers(1))
		}
		for i, x := range b.w.records {
			dst := b.fusedDst[shapeKey(x.Shape())]
			err := t.call(&pt, "codec.roundtrip", i, int64(x.SizeBytes()), func() error {
				_, err := codec.RoundTripInto(b.c, dst, x)
				return err
			})
			if b.n.check(err == nil) {
				b.verify(i, dst)
			}
		}
	default:
		panic("unknown phase " + name)
	}
	return pt
}

// setupOnce is one cold start: a fresh codec, a fresh index open and the
// first record decoded and checked. codec.New is where a writer's
// set-up begins; the IndexedStream builds its own codec on the first
// DecodeAt, which for dctc compiles the per-resolution compressor.
func (b *bench) setupOnce() (time.Duration, error) {
	start := processCPU()
	if _, err := codec.New(b.w.spec); err != nil {
		return 0, err
	}
	ix, err := codec.OpenIndexedStream(bytes.NewReader(b.stream), int64(len(b.stream)))
	if err != nil {
		return 0, err
	}
	out, err := ix.DecodeAt(context.Background(), 0)
	if err != nil {
		return 0, err
	}
	if !b.verify(0, out) {
		return 0, fmt.Errorf("first DecodeAt failed verification")
	}
	return processCPU() - start, nil
}

// psnr is 10·log10(range²/MSE) of the reference decodes against the
// inputs over every element; every timed decode is checked bit-identical
// to these references, so it is the PSNR of every entry point.
func (b *bench) psnr() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	var se float64
	var count int
	for i, x := range b.w.records {
		ref := b.refs[i].Data()
		for k, v := range x.Data() {
			lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
			d := float64(v) - float64(ref[k])
			se += d * d
		}
		count += x.Len()
	}
	if se == 0 {
		return psnrCapDB
	}
	r := hi - lo
	return 10 * math.Log10(r*r/(se/float64(count)))
}

// runEndToEnd is the untraced run: cold set-ups, one discarded warm-up
// pass, then timed passes of every phase until the deadline.
func runEndToEnd(w *workload, seed uint64, deadline time.Duration, n *ops) (map[string]float64, error) {
	b, err := newBench(w, n)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, err := b.setupOnce()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	cpus := map[string][]float64{}
	wallRates := map[string][]float64{}
	gcs := map[string][]float64{}
	start := time.Now()
	for pass := 0; pass <= minPasses || time.Since(start) < deadline; pass++ {
		if pass == 1 {
			start = time.Now() // pass 0 warms pools and the heap; it is not timed
		}
		for _, ph := range phaseNames {
			runtime.GC()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			pt := b.runPhase(ph, nil, int(seed)*1000+pass)
			runtime.ReadMemStats(&ms1)
			if pass > 0 {
				cpus[ph] = append(cpus[ph], pt.cpu.Seconds())
				wallRates[ph] = append(wallRates[ph], b.raw/pt.wall.Seconds()/1e6)
				gcs[ph] = append(gcs[ph], float64(ms1.NumGC-ms0.NumGC))
			}
		}
	}
	vals := map[string]float64{
		"ratio":       b.raw / float64(len(b.stream)),
		"psnr_db":     b.psnr(),
		"setup_s":     median(blockMeans(setups, blockLen)),
		"peak_rss_MB": peakRSSMB(),
	}
	fmt.Printf("  %d timed passes in %.1fs; set-up CPU seconds: %s\n", len(cpus["encode"]), time.Since(start).Seconds(), fmtList(setups))
	for _, ph := range phaseNames {
		var rates []float64
		for _, c := range blockMeans(cpus[ph], blockLen) {
			rates = append(rates, b.raw/c/1e6)
		}
		vals[ph+"_MBps"] = median(rates)
		fmt.Printf("  %-7s MB/cpu-s per %d-pass block: %s; wall MB/s median %.1f; gc cycles per pass: median %.0f max %.0f\n",
			ph, blockLen, fmtList(rates), median(wallRates[ph]), median(gcs[ph]), slices.Max(gcs[ph]))
	}
	return vals, nil
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(s, " ")
}

// peakRSSMB reads the process high-water mark (VmHWM, in KiB) from
// /proc/self/status and returns it in MB (10⁶ bytes).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kib * 1024 / 1e6
		}
	}
	return math.NaN()
}
