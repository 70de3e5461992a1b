main {
  if p.(x + ) == 1 then { end } else { end }
}
