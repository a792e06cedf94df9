package repro.perfbench

import repro.core.TdhHyper
import repro.data.TdDataset

/** Output checks computed apart from the program.
  *
  * Everything here is derived from the dataset's records, gold values and
  * hierarchy parent links alone; none of it reads `ObjectView`, `TdhProb` or
  * `Metrics`, so a fault in the program's substrate or likelihood cannot hide
  * in the check that is meant to catch it.
  */
final class Reference(ds: TdDataset) {
  private val parent = ds.hierarchy.parent

  private def depthOf(v: Int): Int = {
    var d = 0; var cur = v
    while (parent(cur) >= 0) { cur = parent(cur); d += 1 }
    d
  }

  /** a is a proper ancestor of d and not the root. */
  private def isInformativeAncestor(a: Int, d: Int): Boolean = {
    if (parent(a) < 0) return false
    var cur = parent(d)
    while (cur >= 0 && cur != a) cur = parent(cur)
    cur == a
  }

  private val recordsByObj: Array[Array[(Int, Int)]] = {
    val b = Array.fill(ds.numObjects)(Array.newBuilder[(Int, Int)])
    ds.records.foreach(r => b(r.obj) += ((r.source, r.value)))
    b.map(_.result())
  }

  /** V_o: the distinct claimed values of each object, ascending. */
  val cands: Array[Array[Int]] = recordsByObj.map(_.map(_._2).distinct.sorted)

  private val depth: Array[Array[Int]] = cands.map(_.map(depthOf))

  /** gAnc(o)(v)(u): candidate u is in G_o(cands(v)). */
  private val gAnc: Array[Array[Array[Boolean]]] = cands.map { c =>
    Array.tabulate(c.length, c.length)((v, u) => isInformativeAncestor(c(u), c(v)))
  }

  private val inOH: Array[Boolean] = gAnc.map(_.exists(_.exists(identity)))

  /** (source, candidate index) of each record, per object. */
  private val claims: Array[Array[(Int, Int)]] = Array.tabulate(ds.numObjects) { o =>
    recordsByObj(o).map { case (s, v) => (s, java.util.Arrays.binarySearch(cands(o), v)) }
  }

  /** §5: the gold value if claimed, else its deepest claimed informative
    * ancestor, else the gold value itself.
    */
  val mappedGold: Array[Int] = Array.tabulate(ds.numObjects) { o =>
    val g = ds.gold(o)
    if (cands(o).contains(g)) g
    else cands(o).filter(isInformativeAncestor(_, g)).sortBy(depthOf).lastOption.getOrElse(g)
  }

  def hits(truths: Array[Int]): Long = truths.indices.count(o => truths(o) == mappedGold(o)).toLong

  /** Eq. (12): the argmax of μ_o, ties (within 1e-12) to the deeper candidate,
    * then to the lower index.
    */
  def argmax(o: Int, mu: Array[Double]): Int = {
    var best = 0
    for (i <- 1 until mu.length) {
      val d = mu(i) - mu(best)
      if (d > 1e-12 || (math.abs(d) <= 1e-12 && depth(o)(i) > depth(o)(best))) best = i
    }
    best
  }

  /** Majority vote over the source records, with Eq. (12)'s tie-break. */
  def majority(o: Int): Int = {
    val cnt = new Array[Double](cands(o).length)
    claims(o).foreach { case (_, u) => cnt(u) += 1 }
    argmax(o, cnt)
  }

  /** Problems with a truth vector: a truth that is not a candidate, or a
    * candidate vector that differs from the program's.
    */
  def truthProblems(label: String, programCands: Int => Array[Int], truthIdx: Array[Int]): Seq[String] =
    truthIdx.indices.iterator.flatMap { o =>
      val pc = programCands(o)
      if (!java.util.Arrays.equals(pc, cands(o))) Some(s"$label: object $o has candidates ${pc.mkString(",")}, records give ${cands(o).mkString(",")}")
      else if (truthIdx(o) < 0 || truthIdx(o) >= pc.length) Some(s"$label: object $o truth index ${truthIdx(o)} is not a candidate")
      else None
    }.take(5).toSeq

  /** Problems with a probability vector: a negative entry or a sum off 1. */
  private def distProblem(label: String, p: Array[Double]): Option[String] =
    if (p.exists(x => x < 0 || x.isNaN) || math.abs(p.sum - 1.0) > 1e-9) Some(s"$label is not a distribution: ${p.mkString(",")}")
    else None

  /** One EM step of TDH without answers, written from the paper:
    * Eqs. (1)–(2) give P(v_o^s = u | v_o^* = v, φ_s); the E-step posteriors
    * f and g follow Figure 4; Eqs. (9)–(10) are the M-step.
    *
    * @return (μ', φ')
    */
  def tdhStep(mu: Array[Array[Double]], phi: Map[Int, Array[Double]], hyper: TdhHyper)
      : (Array[Array[Double]], Map[Int, Array[Double]]) = {
    val gm1 = hyper.gamma - 1
    val alpha = Array(hyper.alpha._1, hyper.alpha._2, hyper.alpha._3)
    val g = scala.collection.mutable.HashMap.empty[Int, Array[Double]]
    val n = scala.collection.mutable.HashMap.empty[Int, Int].withDefaultValue(0)
    val muNext = Array.tabulate(ds.numObjects) { o =>
      val nv = cands(o).length
      val f = new Array[Double](nv)
      for ((s, u) <- claims(o)) {
        val ph = phi(s)
        def p(v: Int): Double =
          if (inOH(o)) {
            val gSize = gAnc(o)(v).count(identity)
            if (u == v) ph(0)
            else if (gAnc(o)(v)(u)) ph(1) / gSize
            else ph(2) / (nv - gSize - 1)
          } else if (u == v) ph(0) + ph(1)
          else ph(2) / (nv - 1)
        val w = Array.tabulate(nv)(v => p(v) * mu(o)(v))
        val z = w.sum
        val gs = g.getOrElseUpdate(s, new Array[Double](3))
        n(s) += 1
        for (v <- 0 until nv) {
          val fv = w(v) / z
          f(v) += fv
          if (u != v) gs(if (inOH(o) && gAnc(o)(v)(u)) 1 else 2) += fv
          else if (inOH(o)) gs(0) += fv
          else { gs(0) += fv * ph(0) / (ph(0) + ph(1)); gs(1) += fv * ph(1) / (ph(0) + ph(1)) }
        }
      }
      val den = claims(o).length + nv * gm1
      f.map(x => (x + gm1) / den)
    }
    val aDen = alpha.map(_ - 1).sum
    val phiNext = g.map { case (s, gs) => s -> Array.tabulate(3)(t => (gs(t) + alpha(t) - 1) / (n(s) + aDen)) }.toMap
    (muNext, phiNext)
  }

  /** Checks on a TDH result without answers: μ and φ are distributions, the
    * truths are Eq. (12)'s argmax, and one more EM step moves μ by at most
    * `muTol` and φ by at most `phiTol`.
    */
  def tdhProblems(
      label: String,
      programCands: Int => Array[Int],
      mu: Array[Array[Double]],
      phi: Map[Int, Array[Double]],
      truthIdx: Array[Int],
      hyper: TdhHyper,
      muTol: Double,
      phiTol: Double,
  ): Seq[String] = {
    val base = truthProblems(label, programCands, truthIdx)
    if (base.nonEmpty) return base
    val dist = (mu.indices.iterator.flatMap(o => distProblem(s"$label μ_$o", mu(o))) ++
      phi.iterator.flatMap { case (s, p) => distProblem(s"$label φ_$s", p) }).take(5).toSeq
    if (dist.nonEmpty) return dist
    val sources = claims.iterator.flatMap(_.map(_._1)).toSet
    if (phi.keySet != sources) return Seq(s"$label: φ covers ${phi.size} sources, records name ${sources.size}")
    val argmaxes = mu.indices.iterator.filter(o => argmax(o, mu(o)) != truthIdx(o))
      .map(o => s"$label: object $o truth ${truthIdx(o)} is not the argmax ${argmax(o, mu(o))} of μ").take(5).toSeq
    if (argmaxes.nonEmpty) return argmaxes
    val (mu2, phi2) = tdhStep(mu, phi, hyper)
    val dMu = mu.indices.iterator.map(o => mu(o).indices.map(v => math.abs(mu(o)(v) - mu2(o)(v))).max).max
    val dPhi = phi.iterator.map { case (s, p) => p.indices.map(t => math.abs(p(t) - phi2(s)(t))).max }.max
    if (dMu > muTol || dPhi > phiTol)
      Seq(f"$label: one more EM step moves μ by $dMu%.3g (tolerance $muTol%.0e) and φ by $dPhi%.3g (tolerance $phiTol%.0e)")
    else Nil
  }
}

/** The assignment constraints of §4.3. */
object AssignmentRules {

  /** @param answered answered(w, o): worker w answered object o in an earlier round */
  def problems(tasks: Seq[(Int, Int)], workers: Seq[Int], k: Int, answered: (Int, Int) => Boolean): Seq[String] = {
    val perWorker = tasks.groupBy(_._1)
    val tooMany = perWorker.collect { case (w, ts) if ts.size > k => s"worker $w got ${ts.size} objects, more than $k" }
    val unknown = perWorker.keys.filterNot(workers.contains).map(w => s"worker $w is not in this round")
    val shared = tasks.groupBy(_._2).collect { case (o, ts) if ts.size > 1 => s"object $o went to ${ts.size} workers" }
    val again = tasks.collect { case (w, o) if answered(w, o) => s"worker $w got object $o again" }
    (tooMany ++ unknown ++ shared ++ again).take(5).toSeq
  }
}
