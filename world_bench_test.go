// Engine-scale end-to-end benchmarks: full protocol worlds (IDM traffic,
// beaconing routers, radio fan-out) at 1k/10k/100k vehicles, sequential
// and sharded. Run with:
//
//	go test -bench 'BenchmarkWorld' -benchtime 1x -benchmem -timeout 60m .
package georoute_test

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute"
)

// benchScaleWorld builds a multi-segment world of ~total vehicles (500 per
// lane, two one-way lanes per segment, 100 m spacing) and runs 5 simulated
// seconds of full protocol activity. Per-iteration events/s covers the Run
// phase only; world assembly is excluded from the timer.
func benchScaleWorld(b *testing.B, total int) {
	const (
		perLane  = 500
		spawnGap = 100.0
	)
	segments := total / (2 * perLane)
	if segments == 0 {
		segments = 1
	}
	segLen := spawnGap * float64(perLane-1)
	var events uint64
	var vehicles int
	var runWall time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := georoute.BuildScaleWorld(georoute.ScaleWorldConfig{
			Seed:        uint64(i + 1),
			Segments:    segments,
			SegmentRoad: georoute.RoadConfig{Length: segLen, LanesPerDirection: 2},
			SpawnGap:    spawnGap,
		})
		vehicles = w.VehicleCount()
		b.StartTimer()
		start := time.Now()
		w.Run(5 * time.Second)
		runWall += time.Since(start)
		events += w.Engine.Executed()
	}
	b.ReportMetric(float64(events)/runWall.Seconds(), "events/s")
	b.ReportMetric(float64(vehicles), "vehicles")
}

// benchShardedWorld is benchScaleWorld's sharded twin: same geometry and
// population, partitioned over shards engines advanced in lock-step
// epochs. The differential tests in internal/vanet guarantee the two run
// the same simulation, so the events/s ratio is a pure scheduler
// comparison. For honest scaling numbers prefer one process per variant:
// scripts/benchworld.sh (or geosim -bench-world) over in-process b.Run
// siblings, which share heap growth and GC history.
func benchShardedWorld(b *testing.B, total, shards int) {
	const (
		perLane  = 500
		spawnGap = 100.0
	)
	segments := total / (2 * perLane)
	if segments == 0 {
		segments = 1
	}
	segLen := spawnGap * float64(perLane-1)
	var events uint64
	var vehicles int
	var runWall time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sw := georoute.BuildShardedScaleWorld(georoute.ShardedScaleWorldConfig{
			ScaleConfig: georoute.ScaleWorldConfig{
				Seed:        uint64(i + 1),
				Segments:    segments,
				SegmentRoad: georoute.RoadConfig{Length: segLen, LanesPerDirection: 2},
				SpawnGap:    spawnGap,
			},
			Shards: shards,
		})
		vehicles = sw.VehicleCount()
		b.StartTimer()
		start := time.Now()
		sw.Run(5 * time.Second)
		runWall += time.Since(start)
		events += sw.Executed()
	}
	b.ReportMetric(float64(events)/runWall.Seconds(), "events/s")
	b.ReportMetric(float64(vehicles), "vehicles")
	b.ReportMetric(float64(shards), "shards")
}

func BenchmarkWorld1k(b *testing.B) { benchScaleWorld(b, 1_000) }

func BenchmarkWorld10k(b *testing.B) { benchScaleWorld(b, 10_000) }

func BenchmarkWorld100k(b *testing.B) { benchScaleWorld(b, 100_000) }

// BenchmarkWorldSharded4k is the CI smoke variant: small enough to run on
// a shared runner at GOMAXPROCS=1 and =4 (see .github/workflows/ci.yml).
func BenchmarkWorldSharded4k(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchScaleWorld(b, 4_000) })
	b.Run("shards4", func(b *testing.B) { benchShardedWorld(b, 4_000, 4) })
}

func BenchmarkWorldSharded100k(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchScaleWorld(b, 100_000) })
	b.Run("shards8", func(b *testing.B) { benchShardedWorld(b, 100_000, 8) })
}
