// Command acc-compress compresses raw float32 tensor files with any
// registered codec, producing self-describing container files that
// decompress with no out-of-band configuration, and round-trips
// batches on the host or on any of the simulated accelerators.
//
// The codec is picked by a spec string ("family:key=val,flag" with an
// optional "+huf" appended, which runs the shared entropy backend over
// the payload):
//
//	dctc:cf=4,s=2,sg   zfp:rate=8   sz:eb=1e-3   jpegq:q=50
//	dctc:cf=4+huf      lossless:bg=4+huf
//
// Files written with the retired "+fse" stage still decompress; "+huf"
// writes the same block format and picks fse blocks itself wherever
// they are smaller, so "+fse" is decode-only.
//
// Input format for compress/roundtrip: raw little-endian float32
// values of a [BD, C, n, n] batch (dimensions given by flags).
// Decompress needs no shape or codec flags — the container header
// carries both.
//
// Usage:
//
//	acc-compress -mode compress   -in batch.f32 -out batch.accf -bd 10 -c 3 -n 64 -codec zfp:rate=8
//	acc-compress -mode decompress -in batch.accf -out restored.f32
//	acc-compress -mode roundtrip  -in batch.f32 -bd 10 -c 3 -n 64 -codec dctc:cf=4 -device CS-2
//
// With -stream the container format is ACCF v2, a multi-tensor stream
// of independently CRC-protected records:
//
//	acc-compress -mode compress   -stream -in a.f32,b.f32 -out batch.accs -bd 10 -c 3 -n 64 -codec zfp:rate=8 c.f32 d.f32
//	acc-compress -mode decompress -stream -in batch.accs -out restored
//
// Stream compression packs every input (comma-separated -in plus any
// positional arguments after the flags, all sharing the shape flags)
// into one stream;
// stream decompression writes each record to <out>.NNN.f32, decoding
// record by record with bounded memory.
//
// Streams carry a seek-index footer by default (-index=false omits
// it), and -record N extracts a single record without scanning:
//
//	acc-compress -mode decompress -stream -record 2 -in batch.accs -out c.f32
//
// -codec defaults to dctc:cf=4, the paper's DCT+Chop at ratio 4.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/accel/platforms"
	"repro/internal/codec"
	"repro/internal/codec/tensorio"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	var (
		mode   = flag.String("mode", "roundtrip", "compress | decompress | roundtrip")
		in     = flag.String("in", "", "input file")
		out    = flag.String("out", "", "output file (optional for roundtrip)")
		bd     = flag.Int("bd", 1, "batch size")
		ch     = flag.Int("c", 1, "channels")
		n      = flag.Int("n", 0, "resolution (images are n x n)")
		spec   = flag.String("codec", "dctc:cf=4", `codec spec, e.g. "dctc:cf=4,s=2,sg" or "zfp:rate=8"`)
		device = flag.String("device", "", "simulate on a device (CS-2, SN30, GroqChip, IPU, A100)")
		stream = flag.Bool("stream", false, "ACCF v2 stream mode: compress many inputs into one multi-tensor stream, decompress record by record")
		index  = flag.Bool("index", true, "stream compress: append the seek-index footer (readers that predate it skip it; -index=false reproduces the footer-less format)")
		record = flag.Int("record", -1, "stream decompress: extract only record N via the seek index, without scanning the stream")
		stats  = flag.Bool("stats", false, "print a telemetry summary (counters, latency histograms) to stderr after the run")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	switch *mode {
	case "compress":
		if *stream {
			compressStream(*in, *out, newCodec(*spec), *bd, *ch, *n, *index)
			break
		}
		x := readTensor(*in, *bd, *ch, *n)
		c := newCodec(*spec)
		data, err := c.Compress(x)
		check(err)
		check(os.WriteFile(*out, data, 0o644))
		fmt.Printf("%s: compressed %d bytes -> %d bytes (ratio %.2f)\n",
			c.Spec(), x.SizeBytes(), len(data), float64(x.SizeBytes())/float64(len(data)))

	case "decompress":
		if *stream {
			if *record >= 0 {
				extractRecord(*in, *out, *record)
				break
			}
			decompressStream(*in, *out)
			break
		}
		// Fully self-describing: codec and shape come from the container
		// header, so no -codec or shape flags are needed (or consulted).
		x, c, err := codec.DecodeFile(*in)
		check(err)
		if *out == "" {
			check(fmt.Errorf("missing -out"))
		}
		check(tensorio.WriteTensor(*out, x))
		fmt.Printf("%s: decompressed to %v (%d bytes)\n", c.Spec(), x.Shape(), x.SizeBytes())

	case "roundtrip":
		x := readTensor(*in, *bd, *ch, *n)
		c := newCodec(*spec)
		if *device != "" {
			dev := platforms.ByName(*device)
			if dev == nil {
				check(fmt.Errorf("unknown device %q", *device))
			}
			comp, err := codec.Compiler(c, *n)
			check(err)
			cg, err := comp.BuildCompressGraph(*bd, *ch)
			check(err)
			prog, err := dev.Compile(cg)
			check(err)
			_, stats, err := prog.Run(map[string]*tensor.Tensor{"A": x})
			check(err)
			fmt.Printf("%s: simulated compression %v (%.2f GB/s)\n",
				dev.Name(), stats.SimTime, stats.ThroughputGBs(x.SizeBytes()))
		}
		back, bytes, err := c.RoundTrip(x)
		check(err)
		fmt.Printf("codec: %s (%d payload bytes)\n", c.Spec(), bytes)
		fmt.Printf("PSNR: %.2f dB  MSE: %.6g  max error: %.6g\n",
			metrics.PSNR(x, back), metrics.MSE(x, back), metrics.MaxError(x, back))
		if *out != "" {
			check(tensorio.WriteTensor(*out, back))
		}

	default:
		check(fmt.Errorf("unknown mode %q", *mode))
	}

	if *stats {
		fmt.Fprintln(os.Stderr, "--- telemetry ---")
		check(telemetry.Default().Snapshot().WriteHuman(os.Stderr))
	}
}

// compressStream packs every input file (comma-separated `in` plus the
// positional arguments, all sharing the shape flags) into one ACCF v2
// stream at `out`.
func compressStream(in, out string, c codec.Codec, bd, ch, n int, index bool) {
	if out == "" {
		check(fmt.Errorf("missing -out"))
	}
	var ins []string
	for _, p := range strings.Split(in, ",") {
		if p != "" {
			ins = append(ins, p)
		}
	}
	ins = append(ins, flag.Args()...)
	f, err := os.Create(out)
	check(err)
	sw := codec.NewStreamWriter(f)
	check(sw.SetIndex(index))
	var raw int64
	for _, p := range ins {
		x := readTensor(p, bd, ch, n)
		check(sw.WriteTensor(context.Background(), c, x))
		raw += int64(x.SizeBytes())
	}
	check(sw.Close())
	check(f.Close())
	fi, err := os.Stat(out)
	check(err)
	fmt.Printf("%s: streamed %d tensors, %d bytes -> %d bytes (ratio %.2f)\n",
		c.Spec(), sw.Records(), raw, fi.Size(), float64(raw)/float64(fi.Size()))
}

// decompressStream unpacks an ACCF v2 stream record by record, writing
// tensor i to <out>.NNN.f32. Records decode with bounded memory: the
// reader streams each payload through one plane-group of scratch.
func decompressStream(in, out string) {
	if out == "" {
		check(fmt.Errorf("missing -out"))
	}
	f, err := os.Open(in)
	check(err)
	defer f.Close()
	sr, err := codec.NewStreamReader(f)
	check(err)
	for i := 0; ; i++ {
		hdr, err := sr.Next()
		if err == io.EOF {
			fmt.Printf("decoded %d records from %s\n", i, in)
			return
		}
		check(err)
		x, err := sr.Decode(context.Background())
		check(err)
		path := fmt.Sprintf("%s.%03d.f32", strings.TrimSuffix(out, ".f32"), i)
		check(tensorio.WriteTensor(path, x))
		fmt.Printf("%s: record %d %v -> %s (%d bytes)\n", hdr.Spec, i, hdr.Shape, path, x.SizeBytes())
	}
}

// extractRecord seeks straight to record `rec` of an ACCF v2 stream via
// the index footer (falling back to a one-time header walk when the
// stream has none) and writes just that tensor to `out`. Reads are
// proportional to the footer plus the one record, not the stream.
func extractRecord(in, out string, rec int) {
	if out == "" {
		check(fmt.Errorf("missing -out"))
	}
	f, err := os.Open(in)
	check(err)
	defer f.Close()
	fi, err := f.Stat()
	check(err)
	ix, err := codec.OpenIndexedStream(f, fi.Size())
	check(err)
	if rec >= ix.Len() {
		check(fmt.Errorf("record %d out of range: stream has %d records", rec, ix.Len()))
	}
	hdr, err := ix.Header(rec)
	check(err)
	x, err := ix.DecodeAt(context.Background(), rec)
	check(err)
	check(tensorio.WriteTensor(out, x))
	how := "seek index"
	if ix.Rebuilt() {
		how = "rebuilt index (no footer)"
	}
	fmt.Printf("%s: record %d/%d %v -> %s (%d bytes, via %s)\n",
		hdr.Spec, rec, ix.Len(), hdr.Shape, out, x.SizeBytes(), how)
}

// newCodec resolves the -codec spec. A bad spec dies with the library's
// diagnosis (which names the offending token and the valid
// alternatives) plus the full grammar.
func newCodec(spec string) codec.Codec {
	c, err := codec.New(spec)
	if err != nil {
		check(fmt.Errorf("%w\n%s", err, specHelp(spec)))
	}
	return c
}

// specHelp renders the spec grammar with the live registry contents:
// every family with its valid option keys, and the entropy stage.
func specHelp(spec string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  spec grammar: family[:key=val|flag,...][+huf], e.g. %q or %q\n", "dctc:cf=4,s=2+huf", "lossless:bg=4+huf")
	b.WriteString("  families:\n")
	for _, fam := range codec.Families() {
		keys, err := codec.ValidKeys(fam)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "    %-10s keys %v\n", fam, keys)
	}
	b.WriteString("  stage: +huf, the entropy coder (+fse is decode-only: +huf emits fse blocks where they are smaller)")
	if family, _, ok := strings.Cut(spec, ":"); ok {
		if keys, err := codec.ValidKeys(family); err == nil {
			fmt.Fprintf(&b, "\n  %s accepts: %v", family, keys)
		}
	}
	return b.String()
}

func readTensor(path string, bd, ch, n int) *tensor.Tensor {
	x, err := tensorio.ReadTensor(path, bd, ch, n, n)
	check(err)
	return x
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "acc-compress:", err)
		os.Exit(1)
	}
}
