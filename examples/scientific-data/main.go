// Scientific data: compare DCT+Chop against the ZFP-style fixed-rate
// codec on electron-micrograph-like data (the em_denoise benchmark's
// domain), sweeping matched compression ratios — the same comparison as
// the paper's Fig. 9, but at the data-fidelity level.
package main

import (
	"fmt"
	"log"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
)

func main() {
	gen := datagen.NewDenoise(11, 64)
	noisy, clean := gen.Batch(16)
	fmt.Printf("16 graphene micrographs, %v, noise MSE vs clean: %.5f\n\n",
		noisy.Shape(), metrics.MSE(noisy, clean))

	fmt.Println("ratio-matched fidelity (reconstruction vs the noisy input):")
	fmt.Printf("%-8s %-22s %-22s\n", "target", "DCT+Chop", "ZFP-style")
	fmt.Printf("%-8s %-11s %-10s %-11s %-10s\n", "CR", "PSNR (dB)", "measured", "PSNR (dB)", "measured")

	// Chop factors 2..7 give CR 16..1.31; pick the ZFP rate 32/CR to
	// match each.
	for cf := 2; cf <= 7; cf++ {
		comp, err := core.NewCompressor(core.Config{ChopFactor: cf, Serialization: 1}, 64)
		if err != nil {
			log.Fatal(err)
		}
		cr := comp.Config().Ratio()
		dctOut, err := comp.RoundTrip(noisy)
		if err != nil {
			log.Fatal(err)
		}
		zc, err := codec.New(fmt.Sprintf("zfp:rate=%g", 32/cr))
		if err != nil {
			log.Fatal(err)
		}
		zfpOut, zfpBytes, err := zc.RoundTrip(noisy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8.2f %-11.2f %-10.2f %-11.2f %-10.2f\n",
			cr,
			metrics.PSNR(noisy, dctOut), cr,
			metrics.PSNR(noisy, zfpOut), float64(noisy.SizeBytes())/float64(zfpBytes))
	}

	// The third design philosophy from §2.2: SZ-style error-bounded
	// compression, where the user fixes the pointwise error and the
	// ratio floats with the data.
	fmt.Println("\nerror-bounded (SZ-style) on the same data:")
	for _, eb := range []float64{0.05, 0.01, 0.001} {
		sc, err := codec.New(fmt.Sprintf("sz:eb=%g", eb))
		if err != nil {
			log.Fatal(err)
		}
		out, bytes, err := sc.RoundTrip(noisy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  eb=%-7g CR=%5.2f  max error=%.4g  PSNR=%.2f dB\n",
			eb, float64(noisy.SizeBytes())/float64(bytes),
			metrics.MaxError(noisy, out), metrics.PSNR(noisy, out))
	}

	// The denoising effect (§4.2.1): chopping high-frequency DCT bands
	// removes injected noise, moving the image *closer* to the clean
	// signal — the reason compression improves em_denoise test loss.
	fmt.Println("\ndenoising side effect (MSE vs the CLEAN signal):")
	fmt.Printf("  %-12s %.5f\n", "no compress", metrics.MSE(noisy, clean))
	for _, cf := range []int{2, 4, 6} {
		comp, err := core.NewCompressor(core.Config{ChopFactor: cf, Serialization: 1}, 64)
		if err != nil {
			log.Fatal(err)
		}
		out, err := comp.RoundTrip(noisy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  CR=%-9.2f %.5f\n", comp.Config().Ratio(), metrics.MSE(out, clean))
	}
}
