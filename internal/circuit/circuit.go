// Package circuit implements a modified-nodal-analysis (MNA) circuit
// simulator substrate: devices stamp charge/flux, resistive current and
// Jacobian contributions into a dae.System. The paper's VCO — an LC tank in
// parallel with a negative-resistance nonlinear conductor and a MEMS
// varactor (§5) — is provided as a preset in this package.
package circuit

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dae"
	"repro/internal/la"
)

// Ground is the reference node name; its voltage is identically zero.
const Ground = "0"

// Stamper accumulates Jacobian entries; System.JQ and JF stamp through the
// dense matrix's Adder.
type Stamper func(i, j int, v float64)

// Device is a circuit element. Indices used by the stamps are resolved node
// or extra-variable positions in the global state vector; the special index
// -1 denotes ground and contributions to it are dropped by the accumulators.
type Device interface {
	// Name returns the instance name (unique per circuit).
	Name() string
	// Nodes returns the node names this device connects to.
	Nodes() []string
	// NumExtra reports how many extra state variables (branch currents,
	// mechanical coordinates) the device owns.
	NumExtra() int
	// NumInputs reports how many input waveforms the device owns.
	NumInputs() int
	// Bind gives the device its resolved node indices, the base index of
	// its extra variables and the base index of its inputs.
	Bind(nodes []int, extraBase, inputBase int)
	// StampQ accumulates the device's charge/flux contributions into q.
	StampQ(x, q []float64)
	// StampF accumulates the device's resistive contributions into f.
	StampF(x, u, f []float64)
	// StampJQ accumulates dq/dx entries.
	StampJQ(x []float64, add Stamper)
	// StampJF accumulates df/dx entries.
	StampJF(x, u []float64, add Stamper)
	// Inputs evaluates the device's input waveforms at time t into
	// u[inputBase : inputBase+NumInputs()].
	Inputs(t float64, u []float64)
}

// Circuit is a device netlist under construction.
type Circuit struct {
	devices []Device
	names   map[string]bool
	oscNode string // node for autonomous phase conditions, "" if unset
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{names: map[string]bool{}}
}

// Add appends a device, rejecting duplicate instance names.
func (c *Circuit) Add(d Device) error {
	if d.Name() == "" {
		return errors.New("circuit: device must have a name")
	}
	if c.names[d.Name()] {
		return fmt.Errorf("circuit: duplicate device name %q", d.Name())
	}
	c.names[d.Name()] = true
	c.devices = append(c.devices, d)
	return nil
}

// MustAdd is Add that panics on error, for programmatic construction.
func (c *Circuit) MustAdd(d Device) {
	if err := c.Add(d); err != nil {
		panic(err)
	}
}

// SetOscVar marks the named node as the oscillation-phase variable,
// making the built system implement dae.Autonomous.
func (c *Circuit) SetOscVar(node string) { c.oscNode = node }

// System is the compiled circuit: a dae.System over node voltages and
// device extra variables.
type System struct {
	devices   []Device
	nodeIndex map[string]int // node name -> state index
	nodeNames []string       // reverse of nodeIndex
	extraName []string       // names for extra variables
	n         int
	nInputs   int
	oscVar    int
}

// Build resolves node names, assigns extra variables and input slots, and
// returns the compiled system.
func (c *Circuit) Build() (*System, error) {
	if len(c.devices) == 0 {
		return nil, errors.New("circuit: no devices")
	}
	// Collect node names deterministically.
	nodeSet := map[string]bool{}
	for _, d := range c.devices {
		for _, nd := range d.Nodes() {
			if nd != Ground {
				nodeSet[nd] = true
			}
		}
	}
	names := make([]string, 0, len(nodeSet))
	for nd := range nodeSet {
		names = append(names, nd)
	}
	sort.Strings(names)
	s := &System{
		devices:   c.devices,
		nodeIndex: make(map[string]int, len(names)),
		nodeNames: names,
	}
	for i, nd := range names {
		s.nodeIndex[nd] = i
	}
	extraBase := len(names)
	inputBase := 0
	for _, d := range c.devices {
		idx := make([]int, len(d.Nodes()))
		for k, nd := range d.Nodes() {
			if nd == Ground {
				idx[k] = -1
			} else {
				idx[k] = s.nodeIndex[nd]
			}
		}
		d.Bind(idx, extraBase, inputBase)
		for e := 0; e < d.NumExtra(); e++ {
			s.extraName = append(s.extraName, fmt.Sprintf("%s#%d", d.Name(), e))
		}
		extraBase += d.NumExtra()
		inputBase += d.NumInputs()
	}
	s.n = extraBase
	s.nInputs = inputBase
	s.oscVar = -1
	if c.oscNode != "" {
		i, ok := s.nodeIndex[c.oscNode]
		if !ok {
			return nil, fmt.Errorf("circuit: oscillation node %q not in circuit", c.oscNode)
		}
		s.oscVar = i
	}
	return s, nil
}

// Dim implements dae.System.
func (s *System) Dim() int { return s.n }

// NumInputs implements dae.System.
func (s *System) NumInputs() int { return s.nInputs }

// NumNodes returns the number of non-ground nodes.
func (s *System) NumNodes() int { return len(s.nodeNames) }

// NodeIndex returns the state index of a named node, or an error.
func (s *System) NodeIndex(name string) (int, error) {
	i, ok := s.nodeIndex[name]
	if !ok {
		return 0, fmt.Errorf("circuit: unknown node %q", name)
	}
	return i, nil
}

// StateName implements dae.Named.
func (s *System) StateName(i int) string {
	if i < len(s.nodeNames) {
		return "v(" + s.nodeNames[i] + ")"
	}
	return s.extraName[i-len(s.nodeNames)]
}

// OscVar implements dae.Autonomous when an oscillation node was set.
func (s *System) OscVar() int { return s.oscVar }

// Q implements dae.System.
func (s *System) Q(x, q []float64) {
	la.Fill(q, 0)
	for _, d := range s.devices {
		d.StampQ(x, q)
	}
}

// F implements dae.System.
func (s *System) F(x, u, f []float64) {
	la.Fill(f, 0)
	for _, d := range s.devices {
		d.StampF(x, u, f)
	}
}

// Input implements dae.System.
func (s *System) Input(t float64, u []float64) {
	for _, d := range s.devices {
		d.Inputs(t, u)
	}
}

// Input2 evaluates inputs on the bivariate (t1, t2) grid: devices that
// implement Input2Device see both scales, all others are slow-only and get
// their univariate Inputs at t2. Input2(t, t) == Input(t) by construction,
// the mpde.System consistency rule.
func (s *System) Input2(t1, t2 float64, u []float64) {
	for _, d := range s.devices {
		if d2, ok := d.(Input2Device); ok {
			d2.Inputs2(t1, t2, u)
		} else {
			d.Inputs(t2, u)
		}
	}
}

// JQ implements dae.System. The clipped stamping callback is cached on the
// target matrix, so repeated assembly into long-lived Jacobian slots does
// not allocate.
func (s *System) JQ(x []float64, j *la.Dense) {
	j.Zero()
	add := j.Adder()
	for _, d := range s.devices {
		d.StampJQ(x, add)
	}
}

// JF implements dae.System.
func (s *System) JF(x, u []float64, j *la.Dense) {
	j.Zero()
	add := j.Adder()
	for _, d := range s.devices {
		d.StampJF(x, u, add)
	}
}

var _ dae.System = (*System)(nil)
var _ dae.Named = (*System)(nil)
