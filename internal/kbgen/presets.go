package kbgen

import "fmt"

// Generation presets: named sizes shared by the kbgen CLI, the benchmark
// module and the repository's testing.B benchmarks, so "the medium KB"
// or "the million-edge KB" means the same graph everywhere.
// All presets are deterministic in the seed — same (preset, seed) ⇒
// byte-identical graph and fingerprint (see TestGenerateReproducible).
//
//	small   ≈ 2.7K entities /   11K relationships (scale 1)
//	medium  ≈  23K entities /  110K relationships (scale 10)
//	million ≈ 254K entities / 1.21M relationships (scale 110)
var presetScales = map[string]float64{
	"small":   1,
	"medium":  10,
	"million": 110,
}

// PresetNames lists the supported preset names.
func PresetNames() []string { return []string{"small", "medium", "million"} }

// PresetOptions resolves a named preset into generation options with the
// given seed.
func PresetOptions(preset string, seed int64) (Options, error) {
	scale, ok := presetScales[preset]
	if !ok {
		return Options{}, fmt.Errorf("kbgen: unknown preset %q (supported: %v)", preset, PresetNames())
	}
	return Options{Scale: scale, Seed: seed}, nil
}
