package radio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

// The linear-scan oracle: for every frame, walk every attached antenna in
// attach order and apply the same reception and obstruction checks the
// medium applies to its grid candidates. The indexed medium must hand the
// frame to exactly the receivers the oracle names, in exactly that order.

// diffEntry is one callback a receiver saw: frame number, receiver, and
// whether it was an Overhear rather than a Deliver.
type diffEntry struct {
	frame     uint32
	rx        NodeID
	overheard bool
}

func (d diffEntry) String() string {
	kind := "deliver"
	if d.overheard {
		kind = "overhear"
	}
	return fmt.Sprintf("%s(frame %d -> %d)", kind, d.frame, d.rx)
}

type diffNode struct {
	id      NodeID
	ant     *Antenna
	pos     geo.Point
	vx      float64 // m/s along X; 0 for static nodes
	promisc bool
	gone    bool
	log     *[]diffEntry
}

func (n *diffNode) Deliver(f Frame) {
	*n.log = append(*n.log, diffEntry{frame: binary.LittleEndian.Uint32(f.Payload), rx: n.id})
}

func (n *diffNode) Overhear(f Frame) {
	*n.log = append(*n.log, diffEntry{frame: binary.LittleEndian.Uint32(f.Payload), rx: n.id, overheard: true})
}

// diffScenario drives two-way traffic on a 3 km road through the medium
// and checks every frame against the oracle; want accumulates the
// counters the oracle expects the medium to report.
type diffScenario struct {
	t        *testing.T
	rng      *rand.Rand
	e        *sim.Engine
	m        *Medium
	log      []diffEntry
	attached []*diffNode // attach order, which is seq order
	nextID   NodeID
	frames   uint32
	want     Stats
}

const diffRoad = 3000.0

func (s *diffScenario) attach(x, y, vx, rangeM float64, promisc bool) *diffNode {
	s.nextID++
	n := &diffNode{id: s.nextID, pos: geo.Pt(x, y), vx: vx, promisc: promisc, log: &s.log}
	n.ant = s.m.Attach(n.id, rangeM, func() geo.Point { return n.pos }, n, promisc)
	s.attached = append(s.attached, n)
	return n
}

func (s *diffScenario) detach(n *diffNode) {
	s.m.Detach(n.id)
	n.gone = true
	s.attached = slices.DeleteFunc(s.attached, func(o *diffNode) bool { return o == n })
}

// send transmits one frame through the medium and schedules the oracle's
// check right behind the medium's delivery event (same instant, later
// engine sequence number), so both see the same detaches.
func (s *diffScenario) send(from *diffNode, to NodeID) {
	type cand struct {
		n         *diffNode
		addressed bool
	}
	var cands []cand
	reached := false
	at := s.e.Now()
	for _, n := range s.attached {
		if n == from {
			continue
		}
		limit := math.Max(from.ant.rangeM, n.ant.rxRange)
		if !s.m.receives(from.pos.DistanceTo(n.pos), limit, from.id, n.id, at) || s.m.blocked(from.pos, n.pos) {
			continue
		}
		addressed := to == BroadcastID || to == n.id
		reached = reached || to == n.id
		cands = append(cands, cand{n, addressed})
	}
	s.want.Transmitted++
	if to != BroadcastID && !reached {
		s.want.UnicastLost++
	}

	frame := s.frames
	s.frames++
	payload := binary.LittleEndian.AppendUint32(nil, frame)
	s.m.Send(from.ant, to, payload)
	s.e.ScheduleTransient(s.m.Latency(), "oracle", func() {
		var want []diffEntry
		delivered := false
		for _, c := range cands {
			switch {
			case c.n.gone:
			case c.addressed:
				want = append(want, diffEntry{frame: frame, rx: c.n.id})
				s.want.Delivered++
				delivered = delivered || to == c.n.id
			case c.n.promisc:
				want = append(want, diffEntry{frame: frame, rx: c.n.id, overheard: true})
				s.want.Overheard++
			}
		}
		if to != BroadcastID && reached && !delivered {
			s.want.UnicastLost++
		}
		if !slices.Equal(s.log, want) {
			s.t.Fatalf("frame %d from %d to %d at %v:\nmedium %v\noracle %v", frame, from.id, to, at, s.log, want)
		}
		s.log = s.log[:0]
	})
}

func (s *diffScenario) speed() float64 { return 20 + 15*s.rng.Float64() }

func (s *diffScenario) vehicleRange() float64 {
	return []float64{120, 150, 200}[s.rng.IntN(3)]
}

// run plays 300 steps of 100 ms: spawns at both road ends, exits,
// random detaches with frames in flight, three sniffers whose rxRange
// crosses zero at random steps (so the extended list gains and loses
// members at every position), a roadside unit whose range grows past
// the cell size, and positions synced only every other step so frames
// also go out on unsynced drift. The grid grows only through SetRange,
// never through an Attach: the unit attaches first with the largest
// vehicle range, so no later Attach exceeds the cell size. An Attach
// that does hits the known double-index defect pinned by
// TestGrowthAttachLeavesStaleIndexEntry, which this oracle would report.
func (s *diffScenario) run() {
	const dt = 100 * time.Millisecond
	rsu := s.attach(diffRoad/2, -10, 0, 200, false)
	// Eastbound (y = 0) and westbound (y = 40) lanes, laid out as the
	// spawner leaves them: eastbound vehicles attached earlier are further
	// along +X, westbound ones further along -X.
	for i := 0; i < 25; i++ {
		s.attach(diffRoad-float64(i)*110, 0, s.speed(), s.vehicleRange(), i%9 == 4)
		s.attach(float64(i)*115, 40, -s.speed(), s.vehicleRange(), false)
	}
	sniffers := []*diffNode{s.attach(600, 70, 0, 50, true), s.attach(2400, 70, 0, 50, true)}
	for step := 0; step < 300; step++ {
		if s.rng.Float64() < 0.4 {
			s.attach(s.rng.Float64()*5, 0, s.speed(), s.vehicleRange(), s.rng.IntN(8) == 0)
		}
		if s.rng.Float64() < 0.4 {
			s.attach(diffRoad-s.rng.Float64()*5, 40, -s.speed(), s.vehicleRange(), false)
		}
		switch {
		case step == 60:
			// Attached mid-run, so its seq falls inside the vehicles'.
			sniffers = append(sniffers, s.attach(1400, 70, 0, 50, true))
		case step == 150:
			// Past the cell size: every antenna is rebucketed.
			rsu.ant.SetRange(700)
		}
		for _, sn := range sniffers {
			if s.rng.IntN(12) == 0 {
				if sn.ant.rxRange > 0 {
					sn.ant.SetRxRange(0)
				} else {
					sn.ant.SetRxRange(900)
				}
			}
		}

		for k := 1 + s.rng.IntN(4); k > 0; k-- {
			from := s.attached[s.rng.IntN(len(s.attached))]
			to := BroadcastID
			if s.rng.IntN(3) == 0 {
				to = s.attached[s.rng.IntN(len(s.attached))].id
			}
			s.send(from, to)
		}
		if s.rng.IntN(4) == 0 {
			// A vehicle leaves with frames in flight; the static nodes stay.
			if n := s.attached[s.rng.IntN(len(s.attached))]; n.vx != 0 {
				s.detach(n)
			}
		}
		s.e.Run(s.e.Now() + dt)

		for _, n := range slices.Clone(s.attached) {
			n.pos.X += n.vx * dt.Seconds()
			if n.pos.X < -50 || n.pos.X > diffRoad+50 {
				s.detach(n)
			}
		}
		if step%2 == 1 {
			s.m.SyncPositions()
		}
	}
	s.e.Run(s.e.Now() + time.Second)
}

func TestDifferentialLinearScan(t *testing.T) {
	obstruction := CircleObstruction{Center: geo.Pt(1500, 20), Radius: 12}
	for _, edge := range []float64{DefaultEdgeFactor, SoftEdgeFactor} {
		for seed := uint64(1); seed <= 4; seed++ {
			e := sim.NewEngine(seed)
			s := &diffScenario{
				t:   t,
				rng: rand.New(rand.NewPCG(seed, 0xd1ff)),
				e:   e,
				m: NewMedium(e, Config{
					EdgeFactor:   edge,
					Seed:         seed,
					Obstructions: []Obstruction{obstruction},
				}),
			}
			s.run()
			if got := s.m.Stats(); got != s.want {
				t.Fatalf("edge %v seed %d: medium stats %+v, oracle %+v", edge, seed, got, s.want)
			}
			if s.want.Delivered < 5000 || s.want.Overheard == 0 || s.want.UnicastLost == 0 {
				t.Fatalf("edge %v seed %d: scenario too thin to compare: %+v", edge, seed, s.want)
			}
		}
	}
}
