// Code generated by "reoc gen -parametric" from connector XFab; DO NOT EDIT.

// Package xfab is a parametric statically compiled Reo connector:
// XFab, generated once and instantiable at any array length.
// Instead of an ahead-of-time expansion of one fixed-N composite
// space, the package holds one static template per region shape
// (2 shape(s)); New(n) re-plans the connector's asynchronous
// regions at the requested length and binds every matching region
// to its template's compiled dispatch and data moves, joined by the
// engine's real SPSC links. Regions without a matching template run
// interpreted, so the instance is correct at every N.
package xfab

import (
	"repro/internal/gen/genrun"
)

// connectorName names the source definition New compiles at run time.
const connectorName = "XFab"

// source embeds the connector's protocol text; genrun.New re-runs the
// ordinary pipeline (parse, check, compile, instantiate, region plan)
// on it to obtain the region structure at the requested length.
const source = "XFab(a[];b[]) =\n    prod (i:1..#a) Transformer.inc(a[i];m[i])\n    mult prod (i:1..#a) Fifo1(m[i];x[i])\n    mult prod (i:1..#a) Filter.even(x[i];b[i])\n"

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
	// XFab/medium1: 1 states, cls "SK"
	{
		Key:        "s1;i0;st0{t[p0,p1,]->0[a:p1<-p0;xf:inc];};cells:",
		Cls:        "SK",
		States:     1,
		Initial:    0,
		Cells:      0,
		XformNames: []string{"inc"},
		Trans: [][]genrun.Trans{
			{ // state 0
				// {a[1],m[1]} flow
				{Sync: []int32{0, 1}, Target: 0, Flow: true,
					Exec: func(g *genrun.Ctx) {
						v0 := g.Xf[0](g.Val(0))
						g.Deliver(1, v0)
					},
				},
			},
		},
	},
	// XFab/medium3: 1 states, cls "KS"
	{
		Key:         "s1;i0;st0{t[p0,p1,]->0[g:even;xf:;in:p1][a:p0<-p1;xf:];t[p1,]->0[g:!even;xf:;in:p1];};cells:",
		Cls:         "KS",
		States:      1,
		Initial:     0,
		Cells:       0,
		FilterNames: []string{"even"},
		Trans: [][]genrun.Trans{
			{ // state 0
				// {b[1],x[1]} [even]
				{Sync: []int32{0, 1}, Target: 0,
					Guards: func(g *genrun.Ctx) bool {
						if !g.Filt[0](g.Val(1)) {
							return false
						}
						return true
					},
					Exec: func(g *genrun.Ctx) {
						v0 := g.Val(1)
						g.Deliver(0, v0)
					},
				},
				// {x[1]} [!even]
				{Sync: []int32{1}, Target: 0,
					Guards: func(g *genrun.Ctx) bool {
						if g.Filt[0](g.Val(1)) {
							return false
						}
						return true
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
