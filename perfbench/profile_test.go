package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

const (
	geonetPkg   = "github.com/vanetsec/georoute/internal/geonet"
	securityPkg = "github.com/vanetsec/georoute/internal/security"
	radioPkg    = "github.com/vanetsec/georoute/internal/radio"
	simPkg      = "github.com/vanetsec/georoute/internal/sim"
)

// Stacks are leaf first, with function names as runtime/pprof records
// them for this program.
func TestAttributeRules(t *testing.T) {
	cases := []struct {
		name  string
		stack []string
		want  string
	}{
		{"map lookup under LocT.Update is geonet", []string{
			"runtime.mapaccess2_fast64",
			geonetPkg + ".(*LocT).Update",
			geonetPkg + ".(*Router).handleBeacon",
			geonetPkg + ".(*Router).Deliver",
			radioPkg + ".(*Medium).deliver",
			simPkg + ".(*Engine).Run",
		}, "geonet"},
		{"mallocgc under geonet is runtime", []string{
			"runtime.mallocgc",
			"runtime.newobject",
			geonetPkg + ".(*LocT).Update",
			geonetPkg + ".(*Router).Deliver",
		}, "runtime"},
		{"mark assist under an allocation is runtime", []string{
			"runtime.scanobject",
			"runtime.gcDrainN",
			"runtime.gcAssistAlloc1",
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"runtime.growslice",
			radioPkg + ".(*Medium).collect",
		}, "runtime"},
		{"background mark worker is runtime", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcDrainMarkWorkerDedicated",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, "runtime"},
		{"hmac under security is security", []string{
			"crypto/sha256.block",
			"crypto/sha256.(*digest).Write",
			"crypto/hmac.(*hmac).Write",
			securityPkg + ".(*SimCA).VerifyFrame",
			geonetPkg + ".(*Router).Deliver",
		}, "security"},
		{"inlined callee takes the sample", []string{
			simPkg + ".(*wheel).push",
			simPkg + ".(*Engine).enqueue",
			geonetPkg + ".(*Router).armCBF",
		}, "sim"},
		{"facade frames are their own package", []string{
			"github.com/vanetsec/georoute.RunCampaign",
		}, "georoute"},
		{"harness frames are perfbench", []string{
			"crypto/sha256.block",
			"main.digest",
			"main.readJournal",
		}, harnessLayer},
		{"no repo frame is runtime", []string{
			"runtime.futex",
			"runtime.notesleep",
			"runtime.findRunnable",
			"runtime.schedule",
		}, "runtime"},
		{"a module sharing the path prefix is not ours", []string{
			"github.com/vanetsec/georoutex/foo.Bar",
		}, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building profiles in tests.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestParseCPUProfile decodes a gzipped profile shaped like runtime/pprof
// output: two value columns, an inlined location, packed sample fields.
func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mapaccess2_fast64", geonetPkg + ".(*LocT).Update", geonetPkg + ".(*Router).Deliver",
		"runtime.mallocgc"}
	var prof pb
	prof.bytes(1, new(pb).varint(1, 1).varint(2, 2).b)
	prof.bytes(1, new(pb).varint(1, 3).varint(2, 4).b)
	// Sample 1: map lookup inside LocT.Update, 3 samples of 10 ms.
	prof.bytes(2, new(pb).bytes(1, packed(1, 2)).bytes(2, packed(3, 30_000_000)).b)
	// Sample 2: allocation under LocT.Update, unpacked fields, 1 sample.
	prof.bytes(2, new(pb).varint(1, 3).varint(1, 2).varint(2, 1).varint(2, 10_000_000).b)
	// Location 1 holds mapaccess inlined into LocT.Update; 2 is Deliver.
	prof.bytes(4, new(pb).varint(1, 1).bytes(4, new(pb).varint(1, 1).b).bytes(4, new(pb).varint(1, 2).b).b)
	prof.bytes(4, new(pb).varint(1, 2).bytes(4, new(pb).varint(1, 3).b).b)
	prof.bytes(4, new(pb).varint(1, 3).bytes(4, new(pb).varint(1, 4).b).b)
	for id, name := range []uint64{5, 6, 7, 8} {
		prof.bytes(5, new(pb).varint(1, uint64(id+1)).varint(2, name).b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.varint(12, 10_000_000)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	wantStack := []string{"runtime.mapaccess2_fast64", geonetPkg + ".(*LocT).Update", geonetPkg + ".(*Router).Deliver"}
	if got := samples[0].stack; len(got) != len(wantStack) || got[0] != wantStack[0] || got[1] != wantStack[1] || got[2] != wantStack[2] {
		t.Errorf("stack = %q, want %q", got, wantStack)
	}
	busy := layerTable(samples)
	if math.Abs(busy["geonet"]-0.03) > 1e-12 || math.Abs(busy["runtime"]-0.01) > 1e-12 || len(busy) != 2 {
		t.Errorf("layer table = %v, want geonet 0.03 s and runtime 0.01 s", busy)
	}
}

func TestParseCPUProfileRejectsTruncated(t *testing.T) {
	var prof pb
	prof.bytes(6, []byte("cpu"))
	if _, err := parseCPUProfile(prof.b[:len(prof.b)-1]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
