module qaoa2/bench

go 1.23

require qaoa2 v0.0.0

replace qaoa2 => ../
