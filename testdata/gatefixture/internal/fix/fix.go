// Package fix is the fixture of the root TestTestOnlySurfaceFixture. Each
// comment says whether the scan reports the name.
package fix

// Box is reached from cmd/app.
type Box struct{ n int }

// Reset is called from cmd/app: not reported.
func Reset(b *Box) { b.n = 0 }

// Reset only shares its name with the function above, and only tests call
// it: reported.
func (b *Box) Reset() { b.n = 0 }

// Len is reached only through cmd/app's sizer interface: not reported.
func (b *Box) Len() int { return b.n }

// Grow is called only from this file: reported.
func Grow(b *Box) { b.n++ }

// Spec is a knob struct: each field needs a non-test file that sets it.
type Spec struct {
	Size  int // set in cmd/app: not reported
	Limit int // set only by a test: reported
}

// New is called from cmd/app: not reported.
func New(s Spec) *Box {
	b := &Box{n: s.Size}
	Grow(b)
	return b
}
