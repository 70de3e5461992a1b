# p selects left for r in both branches, under different annotations.
main {
  if p.true then {
    p -> r[left] @ "a";
    end
  } else {
    p -> r[left] @ "b";
    end
  }
}
