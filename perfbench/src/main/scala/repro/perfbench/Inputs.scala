package repro.perfbench

import repro.crowd.SimWorkers
import repro.data.{Record, TdDataset, TruthDataGen}
import repro.hier.Hierarchy

import scala.util.Random

/** The benchmark's inputs for one seed.
  *
  * The datasets are the generators' own instances (BirthPlaces seed 42,
  * Heritages seed 7) with object, source and hierarchy-node ids permuted and
  * the records shuffled by the seed; seed 0 keeps them as generated. The
  * simulated workers use seed 123 + the benchmark seed. Redrawing the
  * datasets from the generator instead would change the problem itself: over
  * generator seeds 43–47 BirthPlaces' accuracy spans 0.81–0.90 and EM stops
  * before its iteration cap on some seeds only, so the work and the quality
  * of an op would swing by more than any bound can allow.
  */
final class Inputs(val seed: Long) {
  val workersSeed: Long = 123L + seed

  def workers(n: Int, piP: Double): SimWorkers = SimWorkers.uniform(n, piP, workersSeed)

  /** BirthPlaces, relabelled and compiled, with the seconds the program spent
    * generating and compiling it.
    */
  def birthPlaces(): (TdDataset, Double) = build(TruthDataGen.birthPlaces())
  def heritages(): (TdDataset, Double) = build(TruthDataGen.heritages())

  private def build(gen: => TdDataset): (TdDataset, Double) = {
    val (raw, genMs) = Stats.timeMs(gen)
    val ds = relabel(raw)
    val (_, compileMs) = Stats.timeMs(Inputs.compile(ds))
    (ds, (genMs + compileMs) / 1000)
  }

  /** The same dataset with ids permuted by the seed. Nodes are renumbered in
    * order of (depth, random key), so every parent keeps a smaller id than its
    * children, as `Hierarchy` requires, and the root stays 0.
    */
  def relabel(ds: TdDataset): TdDataset =
    if (seed == 0) ds
    else {
      val rnd = new Random(seed)
      val h = ds.hierarchy
      val key = Array.fill(h.size)(rnd.nextLong())
      key(h.root) = Long.MinValue
      val order = (0 until h.size).sortBy(v => (h.depth(v), key(v)))
      val node = new Array[Int](h.size)
      order.zipWithIndex.foreach { case (v, i) => node(v) = i }
      val hier = Hierarchy.fromParents(
        order.map(v => if (v == h.root) -1 else node(h.parent(v))).toArray,
        Some(order.map(h.labels).toArray))
      val obj = rnd.shuffle((0 until ds.numObjects).toVector).toArray
      val src = rnd.shuffle((0 until ds.numSources).toVector).toArray
      val records = rnd.shuffle(ds.records.map(r => Record(obj(r.obj), src(r.source), node(r.value))))
      val gold = new Array[Int](ds.numObjects)
      for (o <- 0 until ds.numObjects) gold(obj(o)) = node(ds.gold(o))
      TdDataset(hier, ds.numObjects, ds.numSources, records, gold)
    }
}

object Inputs {
  /** The program's compilation of a dataset: its views and mapped gold. */
  def compile(ds: TdDataset): TdDataset = { ds.views; ds.mappedGold; ds }
}
