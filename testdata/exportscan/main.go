package main

import "fixture/internal/lib"

type shape interface{ Area() float64 }

func main() {
	var s shape = lib.Square{}
	println(s.Area())
	var st lib.Stack[int]
	st.Add(1)
}
