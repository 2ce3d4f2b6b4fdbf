package bench

import "fmt"

// ChipWire is one top-level interconnect net of a stitched chip: it drives
// boundary output FromPort of instance FromInst into boundary input ToPort
// of instance ToInst with a POCV wire delay. Ports index the blocks'
// boundary lists (inputs = primary-input startpoints, outputs = primary
// outputs), in order.
type ChipWire struct {
	FromInst, FromPort int
	ToInst, ToPort     int
	Mean, Std          float64
}

// ChipSpec is a multi-block stitched preset: block preset names (one per
// instance) plus deterministic top-level interconnect. The same spec feeds
// both the flattened and the hierarchical analysis paths.
type ChipSpec struct {
	Name   string
	Blocks []string
	Wires  []ChipWire
}

// chipWires wires instance i's outputs into instance i+1's inputs,
// feed-forward only (so stitching can never create a combinational loop):
// wiresPerPair of the nPorts boundary ports per adjacent pair, with
// deterministic pseudo-random source ports and wire delays.
func chipWires(instances, wiresPerPair, nPorts int) []ChipWire {
	var out []ChipWire
	for i := 0; i+1 < instances; i++ {
		for j := 0; j < wiresPerPair; j++ {
			out = append(out, ChipWire{
				FromInst: i, FromPort: (j*7 + i) % nPorts,
				ToInst: i + 1, ToPort: j,
				Mean: 24 + float64((i*7+j*13)%37),
				Std:  1 + 0.25*float64((i+j)%5),
			})
		}
	}
	return out
}

// ChipSpecByName returns one of the stitched chip presets: chip-2x (two des
// instances), chip-4x and chip-16x (four / sixteen block-5 instances). All
// instances of a chip share one block preset, so a block compiles and
// extracts once no matter how many times it is instantiated.
func ChipSpecByName(name string) (ChipSpec, error) {
	switch name {
	case "chip-2x":
		return ChipSpec{
			Name:   "chip-2x",
			Blocks: []string{"des", "des"},
			Wires:  chipWires(2, 24, 32),
		}, nil
	case "chip-4x":
		return ChipSpec{
			Name:   "chip-4x",
			Blocks: []string{"block-5", "block-5", "block-5", "block-5"},
			Wires:  chipWires(4, 48, 64),
		}, nil
	case "chip-16x":
		blocks := make([]string, 16)
		for i := range blocks {
			blocks[i] = "block-5"
		}
		return ChipSpec{
			Name:   "chip-16x",
			Blocks: blocks,
			Wires:  chipWires(16, 48, 64),
		}, nil
	default:
		return ChipSpec{}, fmt.Errorf("bench: unknown chip %q", name)
	}
}

// ChipBlockSpec resolves a chip instance's block preset name against the
// Table I blocks and then the Table II IWLS designs.
func ChipBlockSpec(name string) (Spec, error) {
	if s, err := BlockSpec(name); err == nil {
		return s, nil
	}
	return IWLSSpec(name)
}
