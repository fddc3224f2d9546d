// Package cruise reconstructs the paper's real-life case study: a
// vehicle cruise controller with 54 tasks and 26 messages grouped in 4
// task graphs (two time-triggered, two event-triggered) mapped over 5
// nodes (Section 7, last paragraph). The original application is
// proprietary; this reconstruction matches the published topology
// counts and the Section 7 utilisation bands, and is tuned so that the
// paper's qualitative outcome holds: the Basic Bus Configuration is
// unschedulable while both OBC variants find schedulable
// configurations.
package cruise

import (
	"repro/internal/model"
	"repro/internal/units"
)

// Node roles of the five ECUs.
const (
	Engine model.NodeID = iota
	ABS
	Transmission
	Body
	Dashboard
)

const ms = units.Millisecond
const us = units.Microsecond

type taskSpec struct {
	name string
	node model.NodeID
	wcet units.Duration
}

type msgSpec struct {
	name     string
	from, to string
	size     units.Duration
	prio     int
}

type graphSpec struct {
	name     string
	period   units.Duration
	deadline units.Duration
	tt       bool
	tasks    []taskSpec
	// edges are same-node precedences (no bus traffic).
	edges [][2]string
	msgs  []msgSpec
}

// System builds the cruise-controller system.
func System() (*model.System, error) {
	graphs := []graphSpec{
		{
			// The 20 ms speed-control loop: wheel and engine
			// sensing feeds the main cruise regulator on the
			// dashboard ECU, which commands throttle and
			// transmission.
			// The tight deadline is what defeats the minimal BBC
			// segment: the three dashboard commands
			// (m_throttle/m_shift/m_inhibit) serialise through the
			// dashboard's single static slot across three bus
			// cycles, while OBC's quota assignment gives the
			// dashboard several slots per cycle.
			name: "speed-control", period: 20 * ms, deadline: 8 * ms, tt: true,
			tasks: []taskSpec{
				{"wheel_fl", ABS, 350 * us},
				{"wheel_fr", ABS, 350 * us},
				{"wheel_fuse", ABS, 420 * us},
				{"throttle_sense", Engine, 300 * us},
				{"engine_torque", Engine, 520 * us},
				{"gear_state", Transmission, 280 * us},
				{"cc_switch", Body, 220 * us},
				{"cc_target", Dashboard, 260 * us},
				{"cc_main", Dashboard, 900 * us},
				{"cc_limits", Dashboard, 380 * us},
				{"throttle_cmd", Engine, 400 * us},
				{"shift_cmd", Transmission, 360 * us},
				{"speed_display", Dashboard, 240 * us},
				{"brake_inhibit", ABS, 300 * us},
			},
			edges: [][2]string{
				{"wheel_fl", "wheel_fuse"},
				{"wheel_fr", "wheel_fuse"},
				{"throttle_sense", "engine_torque"},
				{"cc_target", "cc_main"},
				{"cc_main", "cc_limits"},
				{"cc_limits", "speed_display"},
			},
			msgs: []msgSpec{
				{"m_speed", "wheel_fuse", "cc_main", 180 * us, 0},
				{"m_torque", "engine_torque", "cc_main", 140 * us, 0},
				{"m_gear", "gear_state", "cc_main", 90 * us, 0},
				{"m_switch", "cc_switch", "cc_main", 70 * us, 0},
				{"m_throttle", "cc_limits", "throttle_cmd", 150 * us, 0},
				{"m_shift", "cc_limits", "shift_cmd", 110 * us, 0},
				{"m_inhibit", "cc_limits", "brake_inhibit", 90 * us, 0},
			},
		},
		{
			// The 40 ms stability supervisor: slower chassis
			// measurements cross-checked against engine state.
			name: "stability", period: 40 * ms, deadline: 32 * ms, tt: true,
			tasks: []taskSpec{
				{"yaw_rate", ABS, 500 * us},
				{"lat_accel", ABS, 450 * us},
				{"stability_est", ABS, 800 * us},
				{"road_grade", Engine, 420 * us},
				{"load_est", Engine, 600 * us},
				{"slip_ctrl", Transmission, 550 * us},
				{"ride_height", Body, 380 * us},
				{"stability_ui", Dashboard, 300 * us},
				{"grade_comp", Dashboard, 450 * us},
				{"traction_arb", Transmission, 520 * us},
				{"abs_param", ABS, 350 * us},
				{"engine_derate", Engine, 400 * us},
				{"chime", Body, 200 * us},
			},
			edges: [][2]string{
				{"yaw_rate", "stability_est"},
				{"lat_accel", "stability_est"},
				{"road_grade", "load_est"},
				{"stability_est", "abs_param"},
			},
			msgs: []msgSpec{
				{"m_stab", "stability_est", "grade_comp", 200 * us, 0},
				{"m_load", "load_est", "grade_comp", 160 * us, 0},
				{"m_slip", "slip_ctrl", "grade_comp", 120 * us, 0},
				{"m_height", "ride_height", "grade_comp", 100 * us, 0},
				{"m_arb", "grade_comp", "traction_arb", 180 * us, 0},
				{"m_derate", "grade_comp", "engine_derate", 140 * us, 0},
			},
		},
		{
			// Driver interaction events: button presses and stalk
			// inputs ripple through body electronics to the
			// dashboard and the power train.
			name: "driver-events", period: 20 * ms, deadline: 20 * ms, tt: false,
			tasks: []taskSpec{
				{"stalk_scan", Body, 300 * us},
				{"button_debounce", Body, 250 * us},
				{"resume_logic", Body, 350 * us},
				{"hmi_arbiter", Dashboard, 500 * us},
				{"set_speed_adj", Dashboard, 300 * us},
				{"cancel_logic", Dashboard, 280 * us},
				{"cc_engage", Engine, 450 * us},
				{"idle_adjust", Engine, 380 * us},
				{"decel_fuel_cut", Engine, 320 * us},
				{"brake_pedal", ABS, 280 * us},
				{"clutch_pedal", Transmission, 260 * us},
				{"kickdown", Transmission, 330 * us},
				{"event_log", Dashboard, 200 * us},
			},
			edges: [][2]string{
				{"stalk_scan", "button_debounce"},
				{"button_debounce", "resume_logic"},
				{"hmi_arbiter", "set_speed_adj"},
				{"hmi_arbiter", "cancel_logic"},
				{"cc_engage", "idle_adjust"},
				{"set_speed_adj", "event_log"},
			},
			msgs: []msgSpec{
				{"m_stalk", "resume_logic", "hmi_arbiter", 130 * us, 9},
				{"m_engage", "hmi_arbiter", "cc_engage", 150 * us, 8},
				{"m_brake", "brake_pedal", "cancel_logic", 90 * us, 10},
				{"m_clutch", "clutch_pedal", "cancel_logic", 90 * us, 7},
				{"m_kick", "kickdown", "decel_fuel_cut", 110 * us, 6},
				{"m_fuelcut", "cancel_logic", "decel_fuel_cut", 100 * us, 5},
			},
		},
		{
			// Diagnostics and logging: slower event-driven
			// housekeeping spread across every ECU.
			name: "diagnostics", period: 40 * ms, deadline: 40 * ms, tt: false,
			tasks: []taskSpec{
				{"obd_poll", Dashboard, 450 * us},
				{"dtc_scan_engine", Engine, 520 * us},
				{"dtc_scan_abs", ABS, 480 * us},
				{"dtc_scan_trans", Transmission, 460 * us},
				{"dtc_scan_body", Body, 420 * us},
				{"fault_merge", Dashboard, 600 * us},
				{"limp_mode", Engine, 380 * us},
				{"sensor_plaus", ABS, 400 * us},
				{"fluid_monitor", Transmission, 350 * us},
				{"lamp_driver", Body, 250 * us},
				{"odometer", Dashboard, 220 * us},
				{"service_calc", Dashboard, 300 * us},
				{"voltage_mon", Body, 280 * us},
				{"crash_detect", ABS, 380 * us},
			},
			edges: [][2]string{
				{"obd_poll", "fault_merge"},
				{"fault_merge", "service_calc"},
				{"odometer", "service_calc"},
				{"voltage_mon", "lamp_driver"},
			},
			msgs: []msgSpec{
				{"m_dtc_e", "dtc_scan_engine", "fault_merge", 170 * us, 4},
				{"m_dtc_a", "dtc_scan_abs", "fault_merge", 150 * us, 3},
				{"m_dtc_t", "dtc_scan_trans", "fault_merge", 140 * us, 2},
				{"m_dtc_b", "dtc_scan_body", "fault_merge", 130 * us, 1},
				{"m_limp", "fault_merge", "limp_mode", 160 * us, 8},
				{"m_plaus", "sensor_plaus", "fluid_monitor", 120 * us, 6},
				{"m_crash", "crash_detect", "lamp_driver", 100 * us, 10},
			},
		},
	}

	b := model.NewBuilder("cruise-controller", 5)
	b.NodeNames("Engine", "ABS", "Transmission", "Body", "Dashboard")
	for _, gs := range graphs {
		g := b.Graph(gs.name, gs.period, gs.deadline)
		pol := model.FPS
		if gs.tt {
			pol = model.SCS
		}
		prio := len(gs.tasks)
		for _, ts := range gs.tasks {
			id := b.Task(g, ts.name, ts.node, ts.wcet, pol)
			if pol == model.FPS {
				b.SetPriority(id, prio)
				prio--
			}
		}
		for _, e := range gs.edges {
			from, _ := b.Lookup(e[0])
			to, _ := b.Lookup(e[1])
			b.Edge(from, to)
		}
		class := model.DYN
		if gs.tt {
			class = model.ST
		}
		for _, msp := range gs.msgs {
			from, _ := b.Lookup(msp.from)
			to, _ := b.Lookup(msp.to)
			b.Message(msp.name, class, msp.size, from, to, msp.prio)
		}
	}
	return b.Build()
}

// MustSystem panics on construction errors; the case study is a fixed
// fixture.
func MustSystem() *model.System {
	s, err := System()
	if err != nil {
		panic(err)
	}
	return s
}
