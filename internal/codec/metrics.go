package codec

import (
	"sync"

	"repro/internal/telemetry"
)

// This file wires the codec layer into internal/telemetry. Metric
// handles are resolved once — per spec at New, once at init for the
// entropy stage and the stream engine — so the hot paths
// record through pre-fetched pointers (one or two atomic adds each) and
// stay 0 allocs/op. Every recording call is gated on the global
// telemetry switch; with ACC_TELEMETRY=0 (or -tags acc_notelemetry)
// nothing is recorded and nothing is timed.
//
// Naming (see the telemetry package doc for the scheme):
//
//	codec.<spec>.compress_calls / decompress_calls / roundtrip_calls
//	codec.<spec>.roundtrip_fused_calls          (RoundTripInto's fused paths)
//	codec.<spec>.compress_ns / decompress_ns / roundtrip_ns
//	codec.<spec>.input_bytes / payload_bytes    (live ratio = in/payload)
//	codec.<spec>.decode_bytes / output_bytes
//	codec.<spec>.errors.{crc,truncated,bad_spec,canceled,other}
//	stage.huf.forward_ns / inverse_ns            (legacy +fse decodes included)
//	stream.writer.* / stream.reader.*           (see stream metrics below)
//
// input_bytes/payload_bytes tick on every encode-equivalent operation —
// Compress, a stream record encode, or a fused RoundTripInto — so the
// live compression ratio covers the fast paths that never materialize a
// container.

// codecMetrics is one spec's metric family. All fields are nil-safe to
// record into (telemetry nil-receiver semantics), and a nil
// *codecMetrics records nothing, so hand-constructed codecImpls in
// tests need no wiring.
type codecMetrics struct {
	compressCalls   *telemetry.Counter
	decompressCalls *telemetry.Counter
	roundTripCalls  *telemetry.Counter
	compressNs      *telemetry.Histogram
	decompressNs    *telemetry.Histogram
	roundTripNs     *telemetry.Histogram
	inputBytes      *telemetry.Counter
	payloadBytes    *telemetry.Counter
	decodeBytes     *telemetry.Counter
	outputBytes     *telemetry.Counter

	// roundTripFusedCalls ticks with roundTripCalls when RoundTripInto
	// took a fused path, which codes no stream (see RoundTripInto).
	roundTripFusedCalls *telemetry.Counter

	errCRC       *telemetry.Counter
	errTruncated *telemetry.Counter
	errBadSpec   *telemetry.Counter
	errCanceled  *telemetry.Counter
	errOther     *telemetry.Counter
}

var (
	codecMetricsMu sync.Mutex
	codecMetricsBy = map[string]*codecMetrics{}
)

// metricsFor returns the (shared) metric family for a canonical spec,
// creating it on first use. Called from New only — never on a hot path.
func metricsFor(spec string) *codecMetrics {
	codecMetricsMu.Lock()
	defer codecMetricsMu.Unlock()
	if m, ok := codecMetricsBy[spec]; ok {
		return m
	}
	p := "codec." + spec + "."
	m := &codecMetrics{
		compressCalls:   telemetry.NewCounter(p + "compress_calls"),
		decompressCalls: telemetry.NewCounter(p + "decompress_calls"),
		roundTripCalls:  telemetry.NewCounter(p + "roundtrip_calls"),
		compressNs:      telemetry.NewHistogram(p + "compress_ns"),
		decompressNs:    telemetry.NewHistogram(p + "decompress_ns"),
		roundTripNs:     telemetry.NewHistogram(p + "roundtrip_ns"),
		inputBytes:      telemetry.NewCounter(p + "input_bytes"),
		payloadBytes:    telemetry.NewCounter(p + "payload_bytes"),
		decodeBytes:     telemetry.NewCounter(p + "decode_bytes"),
		outputBytes:     telemetry.NewCounter(p + "output_bytes"),
		errCRC:          telemetry.NewCounter(p + "errors.crc"),
		errTruncated:    telemetry.NewCounter(p + "errors.truncated"),
		errBadSpec:      telemetry.NewCounter(p + "errors.bad_spec"),
		errCanceled:     telemetry.NewCounter(p + "errors.canceled"),
		errOther:        telemetry.NewCounter(p + "errors.other"),

		roundTripFusedCalls: telemetry.NewCounter(p + "roundtrip_fused_calls"),
	}
	codecMetricsBy[spec] = m
	return m
}

// countErr bumps the error counter matching err's kind (see ErrorKind).
func (m *codecMetrics) countErr(err error) {
	if m == nil || err == nil || !telemetry.Enabled() {
		return
	}
	switch ErrorKind(err) {
	case "crc":
		m.errCRC.Inc()
	case "truncated":
		m.errTruncated.Inc()
	case "bad_spec":
		m.errBadSpec.Inc()
	case "canceled":
		m.errCanceled.Inc()
	default:
		m.errOther.Inc()
	}
}

// stageM times the entropy stage. A legacy "+fse" payload decodes
// through the same entropy decoder as "+huf", so its inverse is timed
// in the same histogram.
var stageM = struct {
	forwardNs *telemetry.Histogram
	inverseNs *telemetry.Histogram
}{
	forwardNs: telemetry.NewHistogram("stage.huf.forward_ns"),
	inverseNs: telemetry.NewHistogram("stage.huf.inverse_ns"),
}

// streamM is the stream engine's metric set, the one place stream
// events are counted; tests and tools take per-run figures as a
// Snapshot Delta. Writer gauges aggregate across concurrently open
// writers (in-flight deltas add) — see DESIGN.md §7.
var streamM = struct {
	wAdmitted *telemetry.Counter   // records accepted by WriteTensor
	wRecords  *telemetry.Counter   // records emitted to the sink
	wBytesIn  *telemetry.Counter   // uncompressed bytes admitted
	wBytesOut *telemetry.Counter   // encoded payload bytes emitted
	wInflight *telemetry.Gauge     // bytes admitted to an open round
	wEncodeNs *telemetry.Histogram // per-record encode latency

	rRecords  *telemetry.Counter // records parsed (header verified)
	rChunks   *telemetry.Counter // payload chunks delivered
	rBytes    *telemetry.Counter // payload bytes delivered
	rDecoded  *telemetry.Counter // uncompressed bytes decoded
	rCRCFail  *telemetry.Counter // CRC mismatches (header or chunk)
	rDecodeNs *telemetry.Histogram

	iLoads        *telemetry.Counter   // index footers loaded by OpenIndexedStream
	iRebuilds     *telemetry.Counter   // indexes rebuilt by sequential header walk
	iSeeks        *telemetry.Counter   // DecodeAt calls (incl. those fanned out by DecodeRange)
	iRangeRecords *telemetry.Counter   // records decoded through DecodeRange
	iSeekNs       *telemetry.Histogram // per-record seek+decode latency
}{
	wAdmitted: telemetry.NewCounter("stream.writer.records_admitted"),
	wRecords:  telemetry.NewCounter("stream.writer.records_emitted"),
	wBytesIn:  telemetry.NewCounter("stream.writer.uncompressed_bytes"),
	wBytesOut: telemetry.NewCounter("stream.writer.payload_bytes"),
	wInflight: telemetry.NewGauge("stream.writer.inflight_bytes"),
	wEncodeNs: telemetry.NewHistogram("stream.writer.encode_ns"),

	rRecords:  telemetry.NewCounter("stream.reader.records"),
	rChunks:   telemetry.NewCounter("stream.reader.chunks"),
	rBytes:    telemetry.NewCounter("stream.reader.payload_bytes"),
	rDecoded:  telemetry.NewCounter("stream.reader.decoded_bytes"),
	rCRCFail:  telemetry.NewCounter("stream.reader.crc_failures"),
	rDecodeNs: telemetry.NewHistogram("stream.reader.decode_ns"),

	iLoads:        telemetry.NewCounter("stream.index.footer_loads"),
	iRebuilds:     telemetry.NewCounter("stream.index.rebuilds"),
	iSeeks:        telemetry.NewCounter("stream.index.seeks"),
	iRangeRecords: telemetry.NewCounter("stream.index.range_records"),
	iSeekNs:       telemetry.NewHistogram("stream.index.seek_ns"),
}
