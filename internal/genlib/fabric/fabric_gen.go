// Code generated by "reoc gen -parametric" from connector Fabric; DO NOT EDIT.

// Package fabric is a parametric statically compiled Reo connector:
// Fabric, generated once and instantiable at any array length.
// Instead of an ahead-of-time expansion of one fixed-N composite
// space, the package holds one static template per region shape
// (1 shape(s)); New(n) re-plans the connector's asynchronous
// regions at the requested length and binds every matching region
// to its template's compiled dispatch and data moves, joined by the
// engine's real SPSC links. Regions without a matching template run
// interpreted, so the instance is correct at every N.
package fabric

import (
	"repro/internal/gen/genrun"
)

// connectorName names the source definition New compiles at run time.
const connectorName = "Fabric"

// source embeds the connector's protocol text; genrun.New re-runs the
// ordinary pipeline (parse, check, compile, instantiate, region plan)
// on it to obtain the region structure at the requested length.
const source = "Fabric(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])\n"

// Option, Instance, and Funcs re-export the parametric runtime's API
// so callers need not import genrun directly.
type (
	Option   = genrun.Option
	Instance = genrun.Instance
	Funcs    = genrun.Funcs
)

var (
	WithSeed    = genrun.WithSeed
	WithRuntime = genrun.WithRuntime
	WithFuncs   = genrun.WithFuncs
)

// templates holds one static shape per distinct canonical region
// structure observed while probing the connector at array lengths [2 3 4].
var templates = []*genrun.Template{
	// Fabric/medium1: 2 states, cls "SK"
	{
		Key:     "s2;i0;st0{t[p0,]->1[a:c0<-p0;xf:];};st1{t[p1,]->0[a:p1<-c0;xf:];};cells:<nil>,",
		Cls:     "SK",
		States:  2,
		Initial: 0,
		Cells:   1,
		Trans: [][]genrun.Trans{
			{ // state 0
				// {a[1]}
				{Sync: []int32{0}, Target: 1,
					Exec: func(g *genrun.Ctx) {
						v0 := g.Val(0)
						g.SetCell(0, v0)
					},
				},
			},
			{ // state 1
				// {b[1]}
				{Sync: []int32{1}, Target: 0,
					Exec: func(g *genrun.Ctx) {
						v0 := g.Cell(0)
						g.Deliver(1, v0)
					},
				},
			},
		},
	},
}

// New instantiates the connector at array length n: every array
// parameter takes length n, and each region whose structure matches a
// template runs the template's generated code.
func New(n int, opts ...Option) (*Instance, error) {
	return genrun.New(source, connectorName, n, templates, opts...)
}
