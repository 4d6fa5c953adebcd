module sciborq/bench

go 1.24

require sciborq v0.0.0

replace sciborq => ../
