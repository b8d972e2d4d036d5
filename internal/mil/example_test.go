package mil_test

import (
	"fmt"
	"log"
	"net"

	"pathfinder/internal/core"
	"pathfinder/internal/mil"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// Compile XQuery to a MIL program (what pfshell ships to pfserver) and run
// it on a server like the one pfserver builds.
func ExampleEmit() {
	plan, _, err := core.CompileQuery(`sum((1, 2, 3))`, xqcore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	prog, err := mil.Emit(plan)
	if err != nil {
		log.Fatal(err)
	}
	srv := service.New(xenc.NewStore(), service.Config{}).NewMILServer()
	front, back := net.Pipe()
	go srv.ServeConn(back)
	c := mil.NewClient(front)
	defer c.Close()
	out, err := c.ExecMIL(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
	// Output: 6
}
