package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/telemetry"
)

// span is one timed call into a layer. Spans of one record share its
// index; Parent is the enclosing span, or -1. Each span is stamped on
// two clocks: wall-clock and process CPU time, both in ns since the
// tracer started. Layer times use the CPU clock, like the end-to-end
// metrics.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Record   int    `json:"record"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	CPUStart int64  `json:"cpu_start_ns"`
	CPUEnd   int64  `json:"cpu_end_ns"`
	Bytes    int64  `json:"bytes"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded
// from the benchmark's goroutine only. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	cpu0  time.Duration
	spans []span

	// Side results of the layer calls, kept so no call is dead code and
	// the entropy layer's ratio and block modes can be reported.
	sinkCRC               uint32
	entropyIn, entropyOut int64
	blocks                [len(blockModes)]uint64
}

var blockModes = [...]string{"raw", "rle", "fse", "huf"}

func newTracer() *tracer { return &tracer{t0: time.Now(), cpu0: processCPU()} }

func (t *tracer) begin(name string, rec, parent int, bytes int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Record: rec, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), CPUStart: int64(processCPU() - t.cpu0), Bytes: bytes})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].CPUEnd = int64(processCPU() - t.cpu0)
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// entropyBlocks reads the entropy coder's per-mode block counters.
func entropyBlocks() (v [len(blockModes)]uint64) {
	for i, m := range blockModes {
		v[i] = telemetry.Default().Counter("entropy.backend." + m).Value()
	}
	return v
}

func (t *tracer) addBlocks(before [len(blockModes)]uint64) {
	after := entropyBlocks()
	for i := range after {
		t.blocks[i] += after[i] - before[i]
	}
}

// selfTimes returns each span's CPU duration minus the part of it that
// its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].CPUStart < spans[kids[b]].CPUStart })
		covered, end := int64(0), s.CPUStart
		for _, k := range kids {
			lo, hi := max(spans[k].CPUStart, end), min(spans[k].CPUEnd, s.CPUEnd)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[i] = s.CPUEnd - s.CPUStart - covered
	}
	return self
}

// layerSum is one layer's total self time and bytes over a set of spans.
type layerSum struct {
	ns, bytes int64
}

func (l layerSum) mbps() float64 { return float64(l.bytes) / (float64(l.ns) / 1e9) / 1e6 }

// sumLayers totals self time and bytes per layer name, and per
// "parent/layer" pair so the encode and decode paths stay apart.
func sumLayers(spans []span) map[string]layerSum {
	self := selfTimes(spans)
	out := map[string]layerSum{}
	for i, s := range spans {
		keys := []string{s.Name}
		if s.Parent >= 0 {
			keys = append(keys, spans[s.Parent].Name+"/"+s.Name)
		}
		for _, k := range keys {
			l := out[k]
			l.ns += self[i]
			l.bytes += s.Bytes
			out[k] = l
		}
	}
	return out
}

// processCPU is the process's user+system CPU time so far, all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countingReaderAt counts the bytes an IndexedStream reads, exactly.
type countingReaderAt struct {
	r io.ReaderAt
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// sweep runs every family's recomposition over every record, checking
// that it reproduces the family codec's container and decode exactly.
func sweep(b *bench, fams []*family, tr *tracer) {
	for _, f := range fams {
		for i, x := range b.w.records {
			p := tr.begin("encode."+f.name, i, -1, int64(x.SizeBytes()))
			got, err := f.enc(tr, i, p, x)
			tr.end(p)
			want, werr := f.c.Compress(x)
			if !b.n.check(err == nil && werr == nil && bytes.Equal(got, want)) {
				fmt.Fprintf(os.Stderr, "e2ebench: %s record %d: recomposed container differs from %s Compress (%v, %v)\n", f.name, i, f.c.Spec(), err, werr)
				continue
			}
			p = tr.begin("decode."+f.name, i, -1, int64(x.SizeBytes()))
			out, err := f.dec(tr, i, p, got)
			tr.end(p)
			ref, rerr := f.c.Decompress(want)
			if !b.n.check(err == nil && rerr == nil && slices.Equal(out.Shape(), ref.Shape()) &&
				bytes.Equal(floatBytes(out.Data()), floatBytes(ref.Data()))) {
				fmt.Fprintf(os.Stderr, "e2ebench: %s record %d: recomposed decode differs from %s Decompress (%v, %v)\n", f.name, i, f.c.Spec(), err, rerr)
			}
		}
	}
}

// tracedPhases are the phases of a traced pass: the end-to-end phases
// plus the stream engine's read-ahead and pipelined variants and the
// fused round trip at full plane parallelism.
var tracedPhases = append(append([]string(nil), phaseNames...), "readahead", "pipelined", "fused-parallel")

// phaseStats collects one phase's measurements over traced passes.
type phaseStats struct {
	wall, cpu                         []float64 // seconds
	allocs, allocBytes, gcs, gcPauses []float64
	tel                               map[string]uint64 // telemetry counter deltas, summed
}

// telemetryKeep selects the counters a traced run stores per phase:
// which entropy backend, SIMD path, index path and read-ahead outcome
// actually ran.
func telemetryKeep(name string) bool {
	for _, p := range []string{"entropy.backend.", "simd.", "stream.index.", "stream.reader.readahead_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runTraced is the per-layer run: layer sweeps over the workload's
// records, the codec calls the stream engine wraps, then untraced and
// traced passes alternating until the deadline.
func runTraced(w *workload, o options, deadline time.Duration, n *ops) (map[string]float64, error) {
	runStart := time.Now()
	tel0 := telemetry.Default().Snapshot()
	b, err := newBench(w, n)
	if err != nil {
		return nil, err
	}
	fl := &flops{}
	fams, err := newFamilies(fl)
	if err != nil {
		return nil, err
	}
	records := float64(len(w.records))

	// Layer sweep: one discarded warm-up, one measured.
	sweep(b, fams, newTracer())
	*fl = flops{}
	tr := newTracer()
	sweep(b, fams, tr)
	layers := sumLayers(tr.spans)

	// The codec calls a stream phase wraps, at default settings; the
	// first repetition warms up and the second is kept.
	codecCPU := map[string]float64{}
	for rep := 0; rep < 2; rep++ {
		var enc, dec phaseTime
		for i, x := range w.records {
			tr.call(&enc, "codec.compress", i, int64(x.SizeBytes()), func() error { _, err := b.c.Compress(x); return err })
			tr.call(&dec, "codec.decompress", i, int64(x.SizeBytes()), func() error { _, err := b.c.Decompress(b.containers[i]); return err })
		}
		codecCPU["encode"], codecCPU["decode"] = enc.cpu.Seconds(), dec.cpu.Seconds()
	}

	// Index open time and exact bytes read per seek.
	var opens []float64
	cr := &countingReaderAt{r: bytes.NewReader(b.stream)}
	var cix *codec.IndexedStream
	for rep := 0; rep < 21; rep++ {
		start := time.Now()
		cix, err = codec.OpenIndexedStream(cr, int64(len(b.stream)))
		opens = append(opens, float64(time.Since(start).Nanoseconds())/1e3)
		if !n.check(err == nil) {
			return nil, err
		}
	}
	cr.n.Store(0)
	for i := range w.records {
		out, err := cix.DecodeAt(context.Background(), i)
		if n.check(err == nil) {
			b.verify(i, out)
		}
	}
	bytesPerSeek := float64(cr.n.Load()) / records

	// A p99 needs ten samples beyond it, so seek epochs run until there
	// are 1000 latencies; the traced passes below add theirs.
	var seekLat []float64
	for pass := 1; len(seekLat) < 100*minBeyond; pass++ {
		for _, d := range b.runPhase("seek", tr, -pass).lat {
			seekLat = append(seekLat, float64(d.Nanoseconds())/1e3)
		}
	}

	// Passes: 0 warms up; then untraced and traced alternate.
	stats := map[string]*phaseStats{}
	for _, ph := range tracedPhases {
		stats[ph] = &phaseStats{tel: map[string]uint64{}}
	}
	var untraced, traced []float64 // per-pass CPU time of phaseNames
	untracedWall := map[string][]float64{}
	for pass := 0; pass <= 4 || time.Since(runStart) < deadline; pass++ {
		if pass == 0 {
			for _, ph := range tracedPhases {
				b.runPhase(ph, nil, pass)
			}
			continue
		}
		if pass%2 == 1 {
			total := 0.0
			for _, ph := range phaseNames {
				runtime.GC()
				pt := b.runPhase(ph, nil, pass)
				total += pt.cpu.Seconds()
				untracedWall[ph] = append(untracedWall[ph], pt.wall.Seconds())
			}
			untraced = append(untraced, total)
			continue
		}
		total := 0.0
		for _, ph := range tracedPhases {
			runtime.GC()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := telemetry.Default().Snapshot()
			pt := b.runPhase(ph, tr, pass)
			delta := telemetry.Default().Snapshot().Delta(t0)
			runtime.ReadMemStats(&ms1)
			s := stats[ph]
			s.wall = append(s.wall, pt.wall.Seconds())
			s.cpu = append(s.cpu, pt.cpu.Seconds())
			s.allocs = append(s.allocs, float64(ms1.Mallocs-ms0.Mallocs)/records)
			s.allocBytes = append(s.allocBytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(b.raw/1e6))
			s.gcs = append(s.gcs, float64(ms1.NumGC-ms0.NumGC))
			s.gcPauses = append(s.gcPauses, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
			for name, v := range delta.Counters {
				if telemetryKeep(name) {
					s.tel[name] += v
				}
			}
			if ph == "seek" {
				for _, d := range pt.lat {
					seekLat = append(seekLat, float64(d.Nanoseconds())/1e3)
				}
			}
			if slices.Contains(phaseNames, ph) {
				total += pt.cpu.Seconds()
			}
		}
		traced = append(traced, total)
	}
	p50, _ := percentile(seekLat, 50)
	p99, ok := percentile(seekLat, 99)
	if !ok {
		return nil, fmt.Errorf("only %d seek samples for p99", len(seekLat))
	}

	wallRate := func(ph string) float64 { return b.raw / median(stats[ph].wall) / 1e6 }
	cpuMedian := func(ph string) float64 { return median(stats[ph].cpu) }
	vals := map[string]float64{
		"core.compress_MBps":        layers["core.compress"].mbps(),
		"core.decompress_MBps":      layers["core.decompress"].mbps(),
		"core.gflops_computed":      (fl.compress + fl.decompress) / (float64(layers["core.compress"].ns+layers["core.decompress"].ns) / 1e9) / 1e9,
		"lossless.group_MBps":       layers["lossless.group"].mbps(),
		"lossless.ungroup_MBps":     layers["lossless.ungroup"].mbps(),
		"entropy.encode_MBps":       layers["entropy.encode"].mbps(),
		"entropy.decode_MBps":       layers["entropy.decode"].mbps(),
		"entropy.ratio":             float64(tr.entropyIn) / float64(tr.entropyOut),
		"sz.compress_MBps":          layers["sz.compress"].mbps(),
		"sz.decompress_MBps":        layers["sz.decompress"].mbps(),
		"framing.crc_MBps":          layers["framing.crc"].mbps(),
		"framing.container_MBps":    layers["framing.container"].mbps(),
		"stream.write_overhead_pct": 100 * (cpuMedian("encode") - codecCPU["encode"]) / cpuMedian("encode"),
		"stream.read_overhead_pct":  100 * (cpuMedian("decode") - codecCPU["decode"]) / cpuMedian("decode"),
		"stream.records_per_s":      records / cpuMedian("decode"),
		"stream.readahead_MBps":     wallRate("readahead"),
		"stream.pipelined_MBps":     wallRate("pipelined"),
		"index.open_us":             median(opens),
		"index.seek_p50_us":         p50,
		"index.seek_p99_us":         p99,
		"index.bytes_read_per_seek": bytesPerSeek,
		"index.range_speedup":       wallRate("range") / wallRate("seek"),
		"pipeline.scaling":          median(stats["fused"].wall) / median(stats["fused-parallel"].wall),
		"trace.overhead_pct":        100 * (median(traced)/median(untraced) - 1),
	}
	for i, m := range blockModes {
		vals["entropy.blocks_"+m] = float64(tr.blocks[i])
	}
	for _, ph := range phaseNames {
		s := stats[ph]
		vals["wall."+ph+"_MBps"] = b.raw / median(untracedWall[ph]) / 1e6
		vals["mem."+ph+".allocs_per_record"] = median(s.allocs)
		vals["mem."+ph+".alloc_bytes_per_MB"] = median(s.allocBytes)
		vals["mem."+ph+".gc_cycles"] = median(s.gcs)
		vals["mem."+ph+".gc_pause_ms"] = median(s.gcPauses)
	}

	// Residual: phase CPU time not accounted for by the workload's own
	// layers, each timed single-threaded on the same records.
	var native *family
	for _, f := range fams {
		if f.c.Spec() == b.c.Spec() {
			native = f
		}
	}
	if native == nil {
		return nil, fmt.Errorf("no recomposed family for spec %s", b.c.Spec())
	}
	path := func(dir string, names ...string) float64 {
		var ns int64
		for _, name := range names {
			ns += layers[dir+"."+native.name+"/"+name].ns
		}
		return float64(ns) / 1e9
	}
	fwd := path("encode", native.fwd...)
	inv := path("decode", native.inv...)
	layerTime := map[string]float64{
		"encode": fwd + path("encode", "framing.crc"),
		"decode": inv + path("decode", "framing.crc"),
		"fused":  fwd + inv,
	}
	layerTime["seek"], layerTime["range"] = layerTime["decode"], layerTime["decode"]
	for _, ph := range phaseNames {
		cpu := cpuMedian(ph)
		vals["residual_pct."+ph] = 100 * (cpu - layerTime[ph]) / cpu
	}

	tel := telemetry.Default().Snapshot().Delta(tel0)
	vals["telemetry.index_rebuilds"] = float64(tel.Counters["stream.index.rebuilds"])
	n.check(tel.Counters["stream.index.rebuilds"] == 0)
	var vec, port uint64
	for _, ph := range phaseNames {
		for name, v := range stats[ph].tel {
			switch {
			case strings.HasPrefix(name, "simd.") && strings.HasSuffix(name, ".vector_calls"):
				vec += v
			case strings.HasPrefix(name, "simd.") && strings.HasSuffix(name, ".portable_calls"):
				port += v
			}
		}
	}
	vals["telemetry.simd_vector_calls"] = float64(vec)
	vals["telemetry.simd_portable_calls"] = float64(port)

	return vals, writeTrace(o, w, tr, stats, layers, tel)
}

// writeTrace stores the spans, per-layer sums and per-phase telemetry
// deltas of a traced run as JSON under the output directory.
func writeTrace(o options, w *workload, tr *tracer, stats map[string]*phaseStats, layers map[string]layerSum, tel telemetry.Snapshot) error {
	type layerOut struct {
		SelfNs int64 `json:"self_ns"`
		Bytes  int64 `json:"bytes"`
	}
	doc := struct {
		Workload   string                       `json:"workload"`
		Spec       string                       `json:"spec"`
		Seed       uint64                       `json:"seed"`
		Layers     map[string]layerOut          `json:"layers"`
		PhaseTel   map[string]map[string]uint64 `json:"phase_telemetry"`
		RunCounter map[string]uint64            `json:"run_counters"`
		Spans      []span                       `json:"spans"`
	}{Workload: w.name, Spec: w.spec, Seed: o.seed, Layers: map[string]layerOut{},
		PhaseTel: map[string]map[string]uint64{}, RunCounter: map[string]uint64{}, Spans: tr.spans}
	for k, l := range layers {
		doc.Layers[k] = layerOut{l.ns, l.bytes}
	}
	for ph, s := range stats {
		doc.PhaseTel[ph] = s.tel
	}
	for name, v := range tel.Counters {
		if telemetryKeep(name) {
			doc.RunCounter[name] = v
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
