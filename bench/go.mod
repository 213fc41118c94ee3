module cfdclean/bench

go 1.24

require cfdclean v0.0.0

replace cfdclean => ../
