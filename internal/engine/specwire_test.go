package engine

import (
	"bytes"
	"strings"
	"testing"
)

func TestWireSpecRoundTrip(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"Ring", "GRID:5", "rr:3"}, // deliberately non-canonical
		Sizes:      []int{32, 64},
		Agents:     []int{2, 4},
		Placements: []Placement{PlaceSingle, PlaceEqual},
		Pointers:   []Pointer{PtrZero, PtrNegative},
		Process:    "rotor",
		Metric:     "cover",
		Probes:     []ProbeSpec{{Name: "coverage", Stride: 256}},
		Replicas:   3,
		Seed:       42,
		MaxRounds:  1 << 20,
		Kernel:     KernelFast,
		Schedules:  []Schedule{"none", "EDGEFAIL:t=9"},
	}
	b, err := EncodeWireSpec(spec)
	if err != nil {
		t.Fatalf("EncodeWireSpec: %v", err)
	}
	// Canonicalization happened on encode: the wire carries registry
	// canonical spellings, never the caller's.
	for _, want := range []string{`"grid:5x5"`, `"ring"`, `"edgefail:t=9,count=1"`, `"single"`, `"negative"`, `"v":1`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("encoded spec %s missing %s", b, want)
		}
	}
	dec, err := DecodeWireSpec(b)
	if err != nil {
		t.Fatalf("DecodeWireSpec: %v", err)
	}
	b2, err := EncodeWireSpec(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("wire encoding not a decode/encode fixed point:\n got %s\nwant %s", b2, b)
	}
	// The decoded spec must run to the same rows as the original.
	want, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Workers(2)).Run(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded spec ran %d rows, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seed != want[i].Seed || got[i].Value != want[i].Value {
			t.Errorf("row %d differs after wire round trip: got seed=%d value=%g, want seed=%d value=%g",
				i, got[i].Seed, got[i].Value, want[i].Seed, want[i].Value)
		}
	}
}

func TestWireSpecDecodeRejections(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"missing v", `{"agents":[2],"sizes":[32]}`, `missing required version field "v"`},
		{"wrong v", `{"v":2,"agents":[2],"sizes":[32]}`, "unsupported version"},
		{"deprecated topology", `{"v":1,"topology":"ring","agents":[2],"sizes":[32]}`, "deprecated library spelling"},
		{"deprecated walk", `{"v":1,"walk":true,"agents":[2],"sizes":[32]}`, `set "process": "walk"`},
		{"deprecated returnTime", `{"v":1,"returnTime":true,"agents":[2],"sizes":[32]}`, `set "metric": "return"`},
		{"unknown field", `{"v":1,"agents":[2],"sizes":[32],"shard":4}`, `unknown field(s) shard`},
		{"unknown process", `{"v":1,"agents":[2],"sizes":[32],"process":"teleport"}`, "unknown process"},
		{"unknown metric", `{"v":1,"agents":[2],"sizes":[32],"metric":"vibes"}`, "unknown metric"},
		{"bad topology", `{"v":1,"topologies":["klein"],"agents":[2],"sizes":[32]}`, "unknown"},
		{"bad schedule", `{"v":1,"agents":[2],"sizes":[32],"schedules":["quake"]}`, "unknown schedule"},
		{"bad placement", `{"v":1,"agents":[2],"sizes":[32],"placements":["middle"]}`, "unknown placement"},
		{"bad pointer", `{"v":1,"agents":[2],"sizes":[32],"pointers":["north"]}`, "unknown pointer"},
		{"bad kernel", `{"v":1,"agents":[2],"sizes":[32],"kernel":"turbo"}`, "unknown kernel"},
		{"no agents", `{"v":1,"sizes":[32]}`, "agent count"},
		{"schedule/metric conflict", `{"v":1,"agents":[2],"sizes":[32],"metric":"restab_time"}`, "requires at least one schedule"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeWireSpec([]byte(c.body))
			if err == nil {
				t.Fatalf("decode of %s succeeded, want error containing %q", c.body, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("decode error %q does not contain %q", err, c.want)
			}
		})
	}
}
