package main

import "gatefixture/internal/fix"

type sizer interface{ Len() int }

func main() {
	b := fix.New(fix.Spec{Size: 2})
	fix.Reset(b)
	var s sizer = b
	println(s.Len())
}
