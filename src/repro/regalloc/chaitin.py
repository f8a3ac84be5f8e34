"""Chaitin-style graph coloring with Briggs optimistic spilling.

Simplification removes any node with fewer than K still-present
neighbors, the smallest id first (degrees are kept as nodes leave, not
recounted); when none exists, the cheapest node by ``cost / degree`` is
pushed optimistically.  Color assignment walks the stack backwards,
preferring a move partner's color when legal; nodes that find no color
become actual spills and are reported to the driver for spill-code
insertion and another round.
"""

from heapq import heapify, heappop, heappush

from repro.ir.instructions import PReg, VReg


class ColoringResult:
    def __init__(self, assignment, spilled):
        #: dict mapping VReg -> physical register index
        self.assignment = assignment
        #: list of VRegs that could not be colored this round
        self.spilled = spilled

    @property
    def success(self):
        return not self.spilled


def color_graph(graph, machine):
    """Color ``graph`` with the machine's registers.

    Returns a :class:`ColoringResult`; ``spilled`` is empty on success.
    """
    num_colors = machine.num_regs
    nodes = graph.vreg_nodes()
    ordered = sorted(nodes, key=lambda node: node.id)
    rank = {node: position for position, node in enumerate(ordered)}
    remaining = set(nodes)

    # Degrees count both uncolored vregs still in the graph and
    # precolored physical registers (which never leave).  Pushing a
    # node lowers its remaining neighbors' degrees, and degrees only
    # fall, so a node that drops below K stays simplifiable: ``ready``
    # holds the ranks of those nodes, and its smallest live rank is the
    # smallest-id simplifiable node.
    degree = {}
    for node in nodes:
        degree[node] = sum(
            1 for neighbor in graph.neighbors(node)
            if isinstance(neighbor, PReg) or neighbor in remaining
        )
    ready = [rank[node] for node in nodes if degree[node] < num_colors]
    heapify(ready)

    stack = []
    while remaining:
        while ready and ordered[ready[0]] not in remaining:
            heappop(ready)
        if ready:
            candidate = ordered[heappop(ready)]
        else:
            candidate = _pick_spill_candidate(
                graph, ordered, remaining, degree
            )
        stack.append(candidate)
        remaining.discard(candidate)
        for neighbor in graph.neighbors(candidate):
            if neighbor in remaining:
                degree[neighbor] -= 1
                if degree[neighbor] == num_colors - 1:
                    heappush(ready, rank[neighbor])

    assignment = {}
    spilled = []
    while stack:
        node = stack.pop()
        forbidden = set()
        for neighbor in graph.neighbors(node):
            if isinstance(neighbor, PReg):
                forbidden.add(neighbor.index)
            elif neighbor in assignment:
                forbidden.add(assignment[neighbor])
        color = _preferred_color(graph, node, assignment, forbidden, num_colors)
        if color is None:
            spilled.append(node)
        else:
            assignment[node] = color
    return ColoringResult(assignment, spilled)


def _pick_spill_candidate(graph, ordered, remaining, degree):
    """The cheapest remaining node by ``cost / degree``, smallest id
    first among equals."""
    best = None
    best_metric = None
    for node in ordered:
        if node not in remaining or node in graph.no_spill:
            continue
        metric = graph.costs.get(node, 1) / max(degree[node], 1)
        if best_metric is None or metric < best_metric:
            best = node
            best_metric = metric
    if best is None:
        # Only no-spill nodes remain; pick the least harmful anyway and
        # hope optimistic coloring succeeds (it essentially always does
        # for the short-range temps we refuse to spill).
        best = min(
            remaining, key=lambda node: (graph.costs.get(node, 1), node.id)
        )
    return best


def _preferred_color(graph, node, assignment, forbidden, num_colors):
    partners = sorted(
        graph.move_pairs.get(node, ()),
        key=lambda reg: (isinstance(reg, VReg), getattr(reg, "index", 0),
                         getattr(reg, "id", 0)),
    )
    for partner in partners:  # Coalescing bias, precolored partners first.
        if isinstance(partner, PReg):
            color = partner.index
        else:
            color = assignment.get(partner)
        if color is not None and color < num_colors and color not in forbidden:
            return color
    for color in range(num_colors):
        if color not in forbidden:
            return color
    return None


def apply_assignment(function, assignment):
    """Rewrite every virtual register to its assigned physical register."""

    def mapping(register):
        if isinstance(register, VReg):
            return PReg(assignment[register])
        return register

    for block in function.block_list():
        for instruction in block.instructions:
            instruction.rewrite_registers(mapping)
