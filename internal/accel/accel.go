// Package accel simulates the four AI accelerators of the paper (plus an
// A100 GPU reference) well enough to reproduce the evaluation's shape:
// each Device owns an operator-support table, compile-time placement
// rules that enforce on-chip memory limits, and an analytic cost model
// calibrated to the throughput ranges reported in §4.2.2.
//
// Compile mirrors the real toolchains: it walks a static graph, rejects
// unsupported operators (the reason VLE-style encoders cannot ship to
// these devices), and runs placement checks that fail with the same
// out-of-memory errors the paper hits (SN30/GroqChip at 512×512,
// GroqChip beyond batch 1000). Run executes the graph functionally on
// the host tensor engine — results are real — while the reported time is
// the deterministic cost-model estimate, since the wall-clock of this
// machine says nothing about a CS-2.
package accel

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Arch is the paper's Table 1 architecture classification.
type Arch int

const (
	// ArchDataflow covers CS-2 and SN30: compute placed physically
	// on-chip, samples streamed through a deep pipeline.
	ArchDataflow Arch = iota
	// ArchSIMD is the GroqChip TSP: compiler-scheduled SIMD streaming.
	ArchSIMD
	// ArchMIMD is the Graphcore IPU: independent instruction streams per
	// tile.
	ArchMIMD
	// ArchGPU is the A100 reference platform.
	ArchGPU
)

func (a Arch) String() string {
	switch a {
	case ArchDataflow:
		return "Dataflow"
	case ArchSIMD:
		return "SIMD"
	case ArchMIMD:
		return "MIMD"
	case ArchGPU:
		return "GPU"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Specs is a Table 1 row: the device's published resource counts.
type Specs struct {
	Name          string
	ComputeUnits  int
	OnChipMemory  int64 // bytes
	PerUnitMemory int64 // bytes of on-chip memory local to one CU
	Software      []string
	Architecture  Arch
}

// CostModel parameterizes the analytic timing estimate. All rates are
// "effective" — calibrated against §4.2.2's reported throughputs, not
// datasheet peaks — and each device's constructor documents the
// derivation.
type CostModel struct {
	// HostLinkGBs is the effective host→device bandwidth in GB/s.
	HostLinkGBs float64
	// HostLinkLatency is the fixed per-run transfer setup cost.
	HostLinkLatency time.Duration
	// CountOutputTransfer includes device→host output traffic in the
	// transfer term. Dataflow devices leave results on-chip for the
	// training pipeline (the paper's integration), so only the GPU
	// counts it.
	CountOutputTransfer bool
	// ComputeGFLOPs is the effective matmul rate in GFLOP/s.
	ComputeGFLOPs float64
	// OnChipGBs is the effective on-chip memory bandwidth applied to
	// every intermediate tensor touched ("the compressor is
	// memory-bounded", §4.2.2 IPU discussion).
	OnChipGBs float64
	// KernelOverhead is charged once per graph node executed.
	KernelOverhead time.Duration
	// PipelineFill is charged once per run: the dataflow pipeline (or
	// instruction schedule) priming cost.
	PipelineFill time.Duration
	// Overlap selects dataflow composition: total = fill +
	// max(transfer, compute) instead of their sum.
	Overlap bool
	// SmallTensorBytes/SmallTensorPenalty model the SN30 RDU's overhead
	// on many small tensors (§4.2.2: CR 16.0 slower than 4.0): every
	// plane smaller than the threshold is charged the penalty.
	SmallTensorBytes   int
	SmallTensorPenalty time.Duration
	// GatherScatterGBs is the effective rate at which gather/scatter
	// outputs materialize. Index-driven access defeats the contiguous
	// tile layout, so it is far below the dense on-chip bandwidth —
	// this is why the SG optimization trades 1.5–2.7× decompression
	// throughput for its compression-ratio gain (Fig. 17). Zero means
	// the device never compiles those ops anyway.
	GatherScatterGBs float64
	// RowSlotTime models the GroqChip TSP: each row of every runtime
	// input streams through the ALU pipeline in one instruction slot,
	// so time scales with streamed row count rather than FLOPs.
	RowSlotTime time.Duration
	// PlaneOverhead is a fixed per-plane scheduling cost (GroqChip).
	PlaneOverhead time.Duration
}

// PlacementRule is one compile-time resource check; it returns a
// CompileError when the graph cannot be placed on the device.
type PlacementRule func(d *Device, g *graph.Graph) error

// Device is a simulated accelerator.
type Device struct {
	specs   Specs
	support map[graph.OpKind]bool
	cost    CostModel
	rules   []PlacementRule
}

// NewDevice assembles a device from its parts; used by the platform
// subpackages (cerebras, sambanova, groq, graphcore, gpu).
func NewDevice(specs Specs, support map[graph.OpKind]bool, cost CostModel, rules ...PlacementRule) *Device {
	return &Device{specs: specs, support: support, cost: cost, rules: rules}
}

// Specs returns the device's Table 1 row.
func (d *Device) Specs() Specs { return d.specs }

// Name returns the device name.
func (d *Device) Name() string { return d.specs.Name }

// Supports reports operator support — the §3.1 programmability table.
func (d *Device) Supports(k graph.OpKind) bool { return d.support[k] }

// CompileError explains why a graph cannot run on a device, mirroring
// the paper's compile failures.
type CompileError struct {
	Device string
	Graph  string
	Reason string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("accel: %s cannot compile %q: %s", e.Device, e.Graph, e.Reason)
}

// Compile checks operator support and placement, returning an executable
// Program. Like the real toolchains, all tensor shapes are fixed here.
func (d *Device) Compile(g *graph.Graph) (*Program, error) {
	var unsupported []string
	seen := map[graph.OpKind]bool{}
	for _, n := range g.Nodes {
		if !d.support[n.Kind] && !seen[n.Kind] {
			seen[n.Kind] = true
			unsupported = append(unsupported, n.Kind.String())
		}
	}
	if len(unsupported) > 0 {
		sort.Strings(unsupported)
		return nil, &CompileError{
			Device: d.specs.Name,
			Graph:  g.Name,
			Reason: fmt.Sprintf("unsupported operators %v", unsupported),
		}
	}
	for _, rule := range d.rules {
		if err := rule(d, g); err != nil {
			return nil, err
		}
	}
	return &Program{device: d, graph: g, estimate: d.estimate(g)}, nil
}

// Program is a compiled graph bound to a device.
type Program struct {
	device   *Device
	graph    *graph.Graph
	estimate Stats
}

// Device returns the program's device.
func (p *Program) Device() *Device { return p.device }

// Graph returns the compiled graph.
func (p *Program) Graph() *graph.Graph { return p.graph }

// Stats describes one simulated execution.
type Stats struct {
	HostToDeviceBytes int
	DeviceToHostBytes int
	FLOPs             float64
	Kernels           int
	// SimTime is the cost-model execution time, including host-device
	// transfer exactly as the paper's measurements do (§4.1).
	SimTime time.Duration
	// Breakdown decomposes SimTime into the model's terms, so harness
	// output can explain *why* a configuration lands where it does.
	Breakdown CostBreakdown
}

// CostBreakdown is the per-term decomposition of a simulated execution.
// For Overlap (dataflow) devices, Transfer and Compute race and only
// the larger contributes to SimTime; for the others they add.
type CostBreakdown struct {
	Transfer time.Duration // host-link traffic + setup latency
	Compute  time.Duration // FLOPs, on-chip traffic, kernels, TSP slots
	Penalty  time.Duration // small-tensor handling (SN30)
	Fill     time.Duration // pipeline/program fill
	Overlap  bool
}

// ThroughputGBs converts a payload size into the paper's throughput
// metric: payload bytes divided by simulated time.
func (s Stats) ThroughputGBs(payloadBytes int) float64 {
	sec := s.SimTime.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(payloadBytes) / sec / 1e9
}

// Estimate returns the cost-model stats without executing — what the
// sweep harness uses for configurations too large to run functionally.
func (p *Program) Estimate() Stats { return p.estimate }

// Run executes the graph functionally on the host engine and returns
// outputs plus the simulated stats.
func (p *Program) Run(inputs map[string]*tensor.Tensor) ([]*tensor.Tensor, Stats, error) {
	outs, err := p.graph.Execute(inputs)
	if err != nil {
		return nil, Stats{}, err
	}
	return outs, p.estimate, nil
}

// estimate evaluates the cost model for one execution of g.
func (d *Device) estimate(g *graph.Graph) Stats {
	c := d.cost
	h2d := g.InputBytes()
	d2h := g.OutputBytes()

	transfer := c.HostLinkLatency.Seconds()
	if c.HostLinkGBs > 0 {
		transfer += float64(h2d) / (c.HostLinkGBs * 1e9)
		if c.CountOutputTransfer {
			transfer += float64(d2h) / (c.HostLinkGBs * 1e9)
		}
	}

	var compute float64
	touched := 0
	kernels := 0
	for _, n := range g.Nodes {
		if n.Kind == graph.OpConst || n.Kind == graph.OpInput {
			continue
		}
		kernels++
		touched += n.Bytes()
		if (n.Kind == graph.OpGather || n.Kind == graph.OpScatter) && c.GatherScatterGBs > 0 {
			compute += float64(n.Bytes()) / (c.GatherScatterGBs * 1e9)
		}
	}
	// Inputs are touched on-chip too (read into the compute fabric).
	touched += h2d
	if c.ComputeGFLOPs > 0 {
		compute += g.TotalFLOPs() / (c.ComputeGFLOPs * 1e9)
	}
	if c.OnChipGBs > 0 {
		compute += float64(touched) / (c.OnChipGBs * 1e9)
	}
	compute += float64(kernels) * c.KernelOverhead.Seconds()
	if c.RowSlotTime > 0 || c.PlaneOverhead > 0 {
		rows, planes := streamedRows(g)
		compute += float64(rows)*c.RowSlotTime.Seconds() + float64(planes)*c.PlaneOverhead.Seconds()
	}

	var penalty float64
	if c.SmallTensorPenalty > 0 && c.SmallTensorBytes > 0 {
		// Inputs are included: streaming many small tensors into the
		// memory units is precisely the SN30 overhead the paper observes.
		for _, n := range g.Nodes {
			if n.Kind == graph.OpConst {
				continue
			}
			pb, np := planeBytes(n.Shape)
			if pb > 0 && pb < c.SmallTensorBytes {
				penalty += float64(np) * c.SmallTensorPenalty.Seconds()
			}
		}
	}

	var total float64
	if c.Overlap {
		total = c.PipelineFill.Seconds() + maxF(transfer, compute) + penalty
	} else {
		total = c.PipelineFill.Seconds() + transfer + compute + penalty
	}
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	return Stats{
		HostToDeviceBytes: h2d,
		DeviceToHostBytes: d2h,
		FLOPs:             g.TotalFLOPs(),
		Kernels:           kernels,
		SimTime:           sec(total),
		Breakdown: CostBreakdown{
			Transfer: sec(transfer),
			Compute:  sec(compute),
			Penalty:  sec(penalty),
			Fill:     c.PipelineFill,
			Overlap:  c.Overlap,
		},
	}
}

// streamedRows counts, across runtime inputs, the matrix rows that flow
// through the compute pipeline (the TSP slot model) and the number of
// trailing 2-D planes.
func streamedRows(g *graph.Graph) (rows, planes int) {
	for _, n := range g.Inputs {
		if len(n.Shape) < 2 {
			planes++
			rows++
			continue
		}
		rowLen := n.Shape[len(n.Shape)-1]
		if rowLen == 0 {
			continue
		}
		rows += n.Elems() / rowLen
		planes += n.Elems() / (rowLen * n.Shape[len(n.Shape)-2])
	}
	return rows, planes
}

// planeBytes returns the byte size of a node's trailing 2-D plane and
// the number of such planes (0,0 for sub-2-D shapes).
func planeBytes(shape []int) (bytes, planes int) {
	if len(shape) < 2 {
		return 0, 0
	}
	p := 4 * shape[len(shape)-1] * shape[len(shape)-2]
	e := 4
	for _, d := range shape {
		e *= d
	}
	if p == 0 {
		return 0, 0
	}
	return p, e / p
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
