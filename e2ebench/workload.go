package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/datagen"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// workload is one set of records the benchmark writes and reads back.
// The program under test sees only the generated tensors.
type workload struct {
	name string
	spec string
	// lossy workloads report psnr_db; a lossless one must decode
	// bit-exactly.
	lossless bool
	// maxAbsErr, when positive, is the pointwise error bound every
	// decoded element must hold.
	maxAbsErr float64
	records   []*tensor.Tensor
}

// Record counts are sized so one pass over a workload takes well under
// a second on a 2-core host while its inputs still exceed each core's
// L2 many times over (the shared L3 is larger than any input this host
// can afford to hold).
const (
	dctcRecords = 32 // [32,3,64,64] minibatches, 1.5 MiB each
	szRecords   = 16 // [4,8,128,128] scenes, 2 MiB each
	checkpoints = 3  // model parameter sets per checkpoint workload
)

var workloadNames = []string{"train-dctc", "checkpoint-lossless", "fields-sz"}

// newWorkload generates the named workload's records from seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "train-dctc":
		gen := datagen.NewClassify(seed, 64, 10)
		w := &workload{name: name, spec: "dctc:cf=4"}
		for i := 0; i < dctcRecords; i++ {
			x, _ := gen.Batch(32)
			w.records = append(w.records, x)
		}
		return w, nil
	case "checkpoint-lossless":
		return &workload{name: name, spec: "lossless:bg=4+huf", lossless: true, records: checkpointRecords(seed)}, nil
	case "fields-sz":
		gen := datagen.NewCloudSeg(seed, 128, 8)
		w := &workload{name: name, spec: "sz:eb=1e-3", maxAbsErr: 1e-3}
		for i := 0; i < szRecords; i++ {
			x, _ := gen.Batch(4)
			w.records = append(w.records, x)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// checkpointRecords builds the tensors of a few training checkpoints:
// every parameter of the repository's four models, freshly initialised
// from the seed, with N(0, 0.02) weight matrices interleaved after each
// model — records from 8-element BatchNorm vectors up to 2 MiB.
func checkpointRecords(seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	var out []*tensor.Tensor
	add := func(params []*nn.Param) {
		for _, p := range params {
			out = append(out, p.Value)
		}
		out = append(out, rng.Normal(0, 0.02, 1, 1, 512, 1024))
	}
	for c := 0; c < checkpoints; c++ {
		add(models.NewResNetS(rng, 10).Params())
		add(models.NewEncDec(rng).Params())
		add(models.NewAutoencoder(rng).Params())
		add(models.NewUNet(rng, 8, 8).Params())
	}
	return out
}

// rawBytes is the uncompressed float32 size of the workload.
func (w *workload) rawBytes() int64 {
	var n int64
	for _, x := range w.records {
		n += int64(x.SizeBytes())
	}
	return n
}

// digest is the SHA-256 of every record's shape and float32 bits, in
// order: equal digests mean the program received identical inputs.
func (w *workload) digest() [32]byte {
	h := sha256.New()
	var buf [4]byte
	for _, x := range w.records {
		binary.LittleEndian.PutUint32(buf[:], uint32(x.Dims()))
		h.Write(buf[:])
		for _, d := range x.Shape() {
			binary.LittleEndian.PutUint32(buf[:], uint32(d))
			h.Write(buf[:])
		}
		for _, v := range x.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
