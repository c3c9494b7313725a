module newgame/bench

go 1.22

require newgame v0.0.0

replace newgame => ../
