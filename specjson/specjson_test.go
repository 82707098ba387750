package specjson

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rotorring"
)

var update = flag.Bool("update", false, "rewrite golden wire-spec fixtures")

// goldenSpecs are the committed fixtures pinning the wire encoding: any
// codec change that alters canonical bytes (field order, canonicalization,
// enum spellings) breaks these files, which is the point — sweep ids and
// spool spec hashes are derived from exactly these bytes.
var goldenSpecs = []struct {
	name string
	spec rotorring.SweepSpec
}{
	{
		name: "minimal",
		spec: rotorring.SweepSpec{
			Sizes:  []int{64},
			Agents: []int{4},
		},
	},
	{
		name: "full",
		spec: rotorring.SweepSpec{
			Topologies: []rotorring.Topo{"Ring", "GRID:5", "rr:3"},
			Sizes:      []int{32, 64},
			Agents:     []int{2, 4},
			Placements: []rotorring.PlacementPolicy{rotorring.PlaceSingleNode, rotorring.PlaceEqualSpacing},
			Pointers:   []rotorring.PointerPolicy{rotorring.PointerZero, rotorring.PointerNegative},
			Process:    "rotor",
			Metric:     "cover",
			Probes:     []rotorring.ProbeSpec{{Name: "coverage", Stride: 256}},
			Replicas:   3,
			Seed:       42,
			MaxRounds:  1 << 20,
			Kernel:     rotorring.KernelFast,
			Schedules:  []rotorring.Schedule{"none", "EDGEFAIL:t=9"},
		},
	},
	{
		// Mission sweeps travel on the same wire version; probes are absent
		// because missions reject them.
		name: "missions",
		spec: rotorring.SweepSpec{
			Topologies: []rotorring.Topo{"ring"},
			Sizes:      []int{64},
			Agents:     []int{4},
			Placements: []rotorring.PlacementPolicy{rotorring.PlaceEqualSpacing},
			Schedules:  []rotorring.Schedule{"none", "delay:p=0.25"},
			Missions:   []rotorring.Mission{"none", "Explore", "QUIESCE", "patrol:warmup=0,horizon=4096"},
			Replicas:   2,
			Seed:       13,
		},
	},
	{
		// Named for the removed Topology/Walk/ReturnTime spelling it once
		// translated; the fixture pins that the clean fields encode to the
		// same bytes.
		name: "deprecated_translated",
		spec: rotorring.SweepSpec{
			Topologies: []rotorring.Topo{"Grid"},
			Sizes:      []int{8},
			Agents:     []int{2},
			Process:    "walk",
			Metric:     "return",
			Seed:       7,
		},
	},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".wire.json")
}

func TestGoldenFixtures(t *testing.T) {
	for _, g := range goldenSpecs {
		t.Run(g.name, func(t *testing.T) {
			got, err := Encode(g.spec)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			path := goldenPath(g.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run go test ./specjson -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire encoding drifted from %s:\n got %s\nwant %s", path, got, want)
			}
			// Every golden fixture is a decode/encode fixed point.
			dec, err := Decode(want)
			if err != nil {
				t.Fatalf("Decode(golden): %v", err)
			}
			re, err := Encode(dec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(re, want) {
				t.Errorf("golden %s is not a decode/encode fixed point:\n got %s\nwant %s", path, re, want)
			}
		})
	}
}

// TestRoundTripRuns proves wire round-tripping preserves semantics, not
// just bytes: the decoded spec sweeps to byte-identical JSONL.
func TestRoundTripRuns(t *testing.T) {
	spec := goldenSpecs[1].spec
	b, err := Encode(spec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := spec.WriteJSONL(&want, 2); err != nil {
		t.Fatal(err)
	}
	if err := dec.WriteJSONL(&got, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("decoded spec sweeps to different JSONL than the original")
	}
}

func TestDecodeRejectsDeprecatedSpellings(t *testing.T) {
	cases := map[string]string{
		`{"v":1,"topology":"ring","agents":[2],"sizes":[32]}`:    "deprecated library spelling",
		`{"v":1,"walk":true,"agents":[2],"sizes":[32]}`:          `set "process": "walk"`,
		`{"v":1,"returnTime":true,"agents":[2],"sizes":[32]}`:    `set "metric": "return"`,
		`{"agents":[2],"sizes":[32]}`:                            `missing required version field "v"`,
		`{"v":9,"agents":[2],"sizes":[32]}`:                      "unsupported version",
		`{"v":1,"agents":[2],"sizes":[32],"process":"psychic"}`:  "unknown process",
		`{"v":1,"agents":[2],"sizes":[32],"missions":["warp"]}`:  "unknown mission",
		`{"v":1,"agents":[2],"sizes":[32],"quests":["explore"]}`: "unknown field",
	}
	for body, want := range cases {
		if _, err := Decode([]byte(body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode(%s) error %v, want containing %q", body, err, want)
		}
	}
}

// TestEncodeValidates pins fail-fast encoding: an invalid spec fails at
// Encode, before any bytes could reach a spool or a wire.
func TestEncodeValidates(t *testing.T) {
	if _, err := Encode(rotorring.SweepSpec{Sizes: []int{8}}); err == nil {
		t.Error("Encode of agent-less spec succeeded")
	}
	if _, err := Encode(rotorring.SweepSpec{Sizes: []int{8}, Agents: []int{2}, Process: "psychic"}); err == nil {
		t.Error("Encode of unknown-process spec succeeded")
	}
}
