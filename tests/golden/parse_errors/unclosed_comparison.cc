main {
  if p.((x)) <= (y then { end } else { end }
}
