// Package datagen generates the deterministic synthetic datasets that
// stand in for the paper's benchmarks (Table 2/3): a CIFAR10-like
// 10-class image set (classify), graphene electron micrographs with
// injected noise (em_denoise), laser-optics beam images with damage
// artifacts (optical_damage), and multi-channel remote-sensing fields
// with per-pixel cloud masks (slstr_cloud).
//
// Every generator is seeded and procedural: the same seed reproduces
// the same dataset bit-for-bit, which keeps the accuracy experiments of
// Figs. 7/8/9/16 exactly reproducible. The generators are built so that
// the structure a model must learn lives in low spatial frequencies
// (orientation, large-scale shape) while the nuisance content is
// high-frequency — the same statistics that make DCT compaction work on
// the paper's natural and scientific images.
package datagen

import (
	"math"

	"repro/internal/tensor"
)

// DatasetInfo is a Table 2 row.
type DatasetInfo struct {
	Name       string
	SizeGB     float64 // size of the dataset the paper used
	Type       string
	Task       string
	SampleSize string
}

// Table2 lists the paper's benchmark datasets; the harness prints it for
// reference alongside each synthetic stand-in.
func Table2() []DatasetInfo {
	return []DatasetInfo{
		{"ILSVRC 2012-17", 167.62, "General Images", "Classification", "3x256x256"},
		{"em_graphene_sim", 5, "Electron Micrographs", "Denoising", "1x256x256"},
		{"optical_damage_ds1", 27, "Laser Optics", "Reconstruction", "3x492x656"},
		{"cloud_slstr_ds1", 187, "Remote Sensing", "Pixel Segmentation", "3x1200x1500"},
	}
}

// Classify generates a 10-class image dataset in which each class is a
// distinct oriented-grating pattern with a class-specific color balance —
// a learnable synthetic stand-in for CIFAR10.
type Classify struct {
	rng     *tensor.RNG
	n       int
	classes int
}

// NewClassify returns a generator of classes-way n×n RGB images.
func NewClassify(seed uint64, n, classes int) *Classify {
	return &Classify{rng: tensor.NewRNG(seed), n: n, classes: classes}
}

// Batch returns bd images [bd, 3, n, n] with values in roughly [0,1]
// and their labels.
func (c *Classify) Batch(bd int) (*tensor.Tensor, []int) {
	x := tensor.New(bd, 3, c.n, c.n)
	labels := make([]int, bd)
	for b := 0; b < bd; b++ {
		label := c.rng.Intn(c.classes)
		labels[b] = label
		c.render(x, b, label)
	}
	return x, labels
}

// render draws one sample of the given class into x[b]. The class
// determines grating orientation, spatial frequency and the dominant
// color channel; phase and noise vary per sample.
func (c *Classify) render(x *tensor.Tensor, b, label int) {
	theta := math.Pi * float64(label) / float64(c.classes)
	freq := 2 + float64(label%3)
	phase := c.rng.Float64() * 2 * math.Pi
	dom := label % 3
	nf := float64(c.n)
	for ch := 0; ch < 3; ch++ {
		amp := 0.15
		if ch == dom {
			amp = 0.4
		}
		offset := 0.5 + 0.1*float64((label+ch)%3-1)
		for i := 0; i < c.n; i++ {
			for j := 0; j < c.n; j++ {
				u := (float64(i)*math.Cos(theta) + float64(j)*math.Sin(theta)) / nf
				v := offset + amp*math.Sin(2*math.Pi*freq*u+phase) +
					0.08*c.rng.Norm()
				x.Set4(float32(v), b, ch, i, j)
			}
		}
	}
}

// Denoise generates (noisy, clean) pairs of graphene-like electron
// micrographs: the clean signal is the classic three-beam interference
// lattice (cosine waves 60° apart), the noise is Gaussian plus speckle —
// exactly the high-frequency content DCT+Chop removes, which is why
// compression can *improve* the em_denoise benchmark (§4.2.1).
type Denoise struct {
	rng *tensor.RNG
	n   int
	// NoiseStd is the Gaussian noise level (default 0.25).
	NoiseStd float64
}

// NewDenoise returns a generator of 1×n×n micrograph pairs.
func NewDenoise(seed uint64, n int) *Denoise {
	return &Denoise{rng: tensor.NewRNG(seed), n: n, NoiseStd: 0.25}
}

// Batch returns matched noisy and clean tensors of shape [bd, 1, n, n].
func (d *Denoise) Batch(bd int) (noisy, clean *tensor.Tensor) {
	noisy = tensor.New(bd, 1, d.n, d.n)
	clean = tensor.New(bd, 1, d.n, d.n)
	for b := 0; b < bd; b++ {
		orient := d.rng.Float64() * math.Pi / 3
		k := 4 + 2*d.rng.Float64() // lattice spatial frequency
		var phases [3]float64
		for m := range phases {
			phases[m] = d.rng.Float64() * 2 * math.Pi
		}
		nf := float64(d.n)
		for i := 0; i < d.n; i++ {
			for j := 0; j < d.n; j++ {
				var s float64
				for m := 0; m < 3; m++ {
					a := orient + float64(m)*math.Pi/3
					s += math.Cos(2*math.Pi*k*(float64(i)*math.Cos(a)+float64(j)*math.Sin(a))/nf + phases[m])
				}
				v := 0.5 + s/6
				clean.Set4(float32(v), b, 0, i, j)
				nz := d.NoiseStd * d.rng.Norm()
				// Speckle: occasional hot pixels, as in electron imaging.
				if d.rng.Float64() < 0.01 {
					nz += 0.8
				}
				noisy.Set4(float32(v+nz), b, 0, i, j)
			}
		}
	}
	return noisy, clean
}

// Optical generates laser-optics beam images: a Gaussian beam envelope
// modulated by diffraction rings. Healthy images are what the
// optical_damage autoencoder trains on; DamagedBatch adds the streak
// and spot artifacts whose reconstructions show high MSE at test time.
type Optical struct {
	rng *tensor.RNG
	n   int
}

// NewOptical returns a generator of 1×n×n beam images.
func NewOptical(seed uint64, n int) *Optical {
	return &Optical{rng: tensor.NewRNG(seed), n: n}
}

// Batch returns bd healthy beam images [bd, 1, n, n].
func (o *Optical) Batch(bd int) *tensor.Tensor {
	x := tensor.New(bd, 1, o.n, o.n)
	for b := 0; b < bd; b++ {
		o.renderBeam(x, b)
	}
	return x
}

// DamagedBatch returns beam images with damage artifacts superimposed.
func (o *Optical) DamagedBatch(bd int) *tensor.Tensor {
	x := o.Batch(bd)
	for b := 0; b < bd; b++ {
		o.addDamage(x, b)
	}
	return x
}

func (o *Optical) renderBeam(x *tensor.Tensor, b int) {
	nf := float64(o.n)
	cx := nf/2 + o.rng.Norm()*nf/20
	cy := nf/2 + o.rng.Norm()*nf/20
	sigma := nf / 4 * (0.9 + 0.2*o.rng.Float64())
	ringF := 6 + 3*o.rng.Float64()
	for i := 0; i < o.n; i++ {
		for j := 0; j < o.n; j++ {
			r2 := (float64(i)-cx)*(float64(i)-cx) + (float64(j)-cy)*(float64(j)-cy)
			r := math.Sqrt(r2)
			env := math.Exp(-r2 / (2 * sigma * sigma))
			rings := 1 + 0.25*math.Cos(2*math.Pi*ringF*r/nf)
			v := env*rings + 0.02*o.rng.Norm()
			x.Set4(float32(v), b, 0, i, j)
		}
	}
}

func (o *Optical) addDamage(x *tensor.Tensor, b int) {
	// A handful of dark spots (sites) and one streak (scratch).
	spots := 2 + o.rng.Intn(4)
	for s := 0; s < spots; s++ {
		ci := o.rng.Intn(o.n)
		cj := o.rng.Intn(o.n)
		rad := 1 + o.rng.Intn(o.n/16+1)
		for i := max(0, ci-rad); i < min(o.n, ci+rad); i++ {
			for j := max(0, cj-rad); j < min(o.n, cj+rad); j++ {
				di, dj := i-ci, j-cj
				if di*di+dj*dj <= rad*rad {
					x.Set4(x.At4(b, 0, i, j)*0.2, b, 0, i, j)
				}
			}
		}
	}
	row := o.rng.Intn(o.n)
	for j := 0; j < o.n; j++ {
		x.Set4(x.At4(b, 0, row, j)*0.4, b, 0, row, j)
	}
}

// CloudSeg generates multi-channel remote-sensing scenes plus per-pixel
// cloud masks for the slstr_cloud segmentation benchmark: each channel
// is a smooth "surface radiance" field; clouds are smooth blobs that
// brighten every channel where present, and the mask is their support.
type CloudSeg struct {
	rng      *tensor.RNG
	n        int
	channels int
}

// NewCloudSeg returns a generator of channels×n×n scenes.
func NewCloudSeg(seed uint64, n, channels int) *CloudSeg {
	return &CloudSeg{rng: tensor.NewRNG(seed), n: n, channels: channels}
}

// Batch returns scenes [bd, C, n, n] and binary masks [bd, 1, n, n].
func (c *CloudSeg) Batch(bd int) (scenes, masks *tensor.Tensor) {
	scenes = tensor.New(bd, c.channels, c.n, c.n)
	masks = tensor.New(bd, 1, c.n, c.n)
	nf := float64(c.n)
	for b := 0; b < bd; b++ {
		// Cloud field: sum of a few Gaussian blobs, thresholded.
		type blob struct{ cx, cy, sig, amp float64 }
		blobs := make([]blob, 2+c.rng.Intn(3))
		for i := range blobs {
			blobs[i] = blob{
				cx:  c.rng.Float64() * nf,
				cy:  c.rng.Float64() * nf,
				sig: nf / 8 * (0.7 + c.rng.Float64()),
				amp: 0.7 + 0.6*c.rng.Float64(),
			}
		}
		// Surface: per-channel low-frequency sinusoid mix.
		type wave struct{ fx, fy, ph, amp float64 }
		surf := make([][]wave, c.channels)
		for ch := range surf {
			surf[ch] = make([]wave, 3)
			for w := range surf[ch] {
				surf[ch][w] = wave{
					fx:  (c.rng.Float64() - 0.5) * 4,
					fy:  (c.rng.Float64() - 0.5) * 4,
					ph:  c.rng.Float64() * 2 * math.Pi,
					amp: 0.1 + 0.1*c.rng.Float64(),
				}
			}
		}
		for i := 0; i < c.n; i++ {
			for j := 0; j < c.n; j++ {
				var cloud float64
				for _, bl := range blobs {
					d2 := (float64(i)-bl.cx)*(float64(i)-bl.cx) + (float64(j)-bl.cy)*(float64(j)-bl.cy)
					cloud += bl.amp * math.Exp(-d2/(2*bl.sig*bl.sig))
				}
				isCloud := cloud > 0.5
				if isCloud {
					masks.Set4(1, b, 0, i, j)
				}
				for ch := 0; ch < c.channels; ch++ {
					v := 0.35
					for _, w := range surf[ch] {
						v += w.amp * math.Sin(2*math.Pi*(w.fx*float64(i)+w.fy*float64(j))/nf+w.ph)
					}
					if isCloud {
						// Clouds are bright and channel-flat.
						v = 0.8 + 0.15*(cloud-0.5) + 0.02*c.rng.Norm()
					} else {
						v += 0.02 * c.rng.Norm()
					}
					scenes.Set4(float32(v), b, ch, i, j)
				}
			}
		}
	}
	return scenes, masks
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
