package fix

import "testing"

func TestBox(t *testing.T) {
	b := New(Spec{Limit: 1})
	b.Reset()
	Grow(b)
}
